#include "accubench/accubench.hh"

#include "sim/logging.hh"

namespace pvar
{

namespace
{

void
markPhase(Trace *trace, Time now, AccubenchPhase phase)
{
    if (trace)
        trace->record("phase", now, static_cast<double>(phase));
}

} // namespace

IterationResult
runAccubenchIteration(Simulator &sim, Device &device,
                      const AccubenchConfig &cfg, Trace *trace)
{
    AccubenchProgress progress =
        startAccubenchIteration(sim, device, cfg, trace);
    return finishAccubenchIteration(sim, device, cfg, trace, progress);
}

AccubenchProgress
startAccubenchIteration(Simulator &sim, Device &device,
                        const AccubenchConfig &cfg, Trace *trace)
{
    AccubenchProgress p;

    // ---- Phase 1: warmup -------------------------------------------------
    markPhase(trace, sim.now(), AccubenchPhase::Warmup);
    device.acquireWakelock();
    device.startWorkload(cfg.workload);

    p.warmupStart = sim.now();
    p.e0 = device.energyMeter().total();
    p.warmupEnd = sim.now() + cfg.warmupDuration;
    p.deadline = p.warmupEnd;
    sim.runUntil(p.warmupEnd);
    p.result.warmupTime = sim.now() - p.warmupStart;

    // ---- Phase 2: cooldown ----------------------------------------------
    markPhase(trace, sim.now(), AccubenchPhase::Cooldown);
    device.stopWorkload();
    device.releaseWakelock();
    device.setSuspendAllowed(true);

    p.cooldownStart = sim.now();
    p.cooldownDeadline = p.cooldownStart + cfg.cooldownTimeout;
    p.result.cooldownReachedTarget = false;
    while (sim.now() < p.cooldownDeadline) {
        // Sleep until the next poll, then wake momentarily to read the
        // sensor, as the paper's app does.
        p.pollEnd = sim.now() + cfg.cooldownPoll;
        p.deadline = p.pollEnd;
        sim.runUntil(p.pollEnd);
        device.stayAwakeUntil(sim.now() + cfg.pollWakeSpan);
        if (device.readCpuTemp() <= cfg.cooldownTarget) {
            p.result.cooldownReachedTarget = true;
            break;
        }
    }
    return p;
}

IterationResult
finishAccubenchIteration(Simulator &sim, Device &device,
                         const AccubenchConfig &cfg, Trace *trace,
                         const AccubenchProgress &progress)
{
    IterationResult result = progress.result;
    EnergyMeter &meter = device.energyMeter();

    if (!result.cooldownReachedTarget)
        warn("ACCUBENCH %s: cooldown timed out above %.1fC",
             device.name().c_str(), cfg.cooldownTarget.value());
    result.cooldownTime = sim.now() - progress.cooldownStart;
    device.setSuspendAllowed(false);

    // ---- Phase 3: workload ------------------------------------------------
    markPhase(trace, sim.now(), AccubenchPhase::Workload);
    device.acquireWakelock();
    device.resetIterations();
    result.tempAtWorkloadStart = device.readCpuTemp();

    Time workload_start = sim.now();
    Joules e_workload_start = meter.total();
    device.startWorkload(cfg.workload);

    // The device tracks the running max of its latched sensor reading
    // internally, so the workload phase needs no per-tick sampling
    // loop here — which lets the event-driven fast path take long
    // analytic jumps through the whole phase.
    device.resetSensorPeak();
    sim.runUntil(sim.now() + cfg.workloadDuration);
    double peak = device.sensorPeak().value();

    device.stopWorkload();
    device.releaseWakelock();
    markPhase(trace, sim.now(), AccubenchPhase::Idle);

    result.workloadTime = sim.now() - workload_start;
    result.score = device.iterations();
    result.workloadEnergy = meter.total() - e_workload_start;
    result.totalEnergy = meter.total() - progress.e0;
    result.peakWorkloadTemp = Celsius(peak);
    return result;
}

} // namespace pvar
