/**
 * @file
 * The ACCUBENCH technique (paper §III).
 *
 * One iteration is the three-phase sequence that makes measurements
 * repeatable regardless of the device's prior thermal state:
 *
 *  1. WARMUP — hold a wakelock and run the CPU-intensive task on all
 *     cores for a fixed time (3 min), so a cold device reaches the
 *     same heated state a busy device is already in.
 *  2. COOLDOWN — release the wakelock and let the system suspend,
 *     waking momentarily every 5 s to poll the CPU temperature; the
 *     phase ends when the sensor reports a value at or below the
 *     target temperature.
 *  3. WORKLOAD — re-acquire the wakelock and run the task for a fixed
 *     time (5 min); the score is the number of pi-digit iterations
 *     completed across all cores.
 *
 * Phases are numbered in the recorded "phase" trace channel:
 * 0 = idle, 1 = warmup, 2 = cooldown, 3 = workload.
 */

#ifndef PVAR_ACCUBENCH_ACCUBENCH_HH
#define PVAR_ACCUBENCH_ACCUBENCH_HH

#include "accubench/result.hh"
#include "device/device.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

namespace pvar
{

/** Phase labels recorded into the trace. */
enum class AccubenchPhase
{
    Idle = 0,
    Warmup = 1,
    Cooldown = 2,
    Workload = 3,
};

/** Technique parameters (paper defaults). */
struct AccubenchConfig
{
    /** Warmup duration (paper: 3 minutes). */
    Time warmupDuration = Time::minutes(3);

    /** Workload duration T_workload (paper: 5 minutes). */
    Time workloadDuration = Time::minutes(5);

    /** Cooldown ends when the sensor reads at or below this. */
    Celsius cooldownTarget{32.0};

    /** Temperature polling period during cooldown (paper: 5 s). */
    Time cooldownPoll = Time::sec(5);

    /** How long each poll holds the system awake. */
    Time pollWakeSpan = Time::msec(60);

    /** Give up on cooldown after this long (still records result). */
    Time cooldownTimeout = Time::minutes(25);

    /** The CPU-intensive task. */
    CpuIntensiveWorkload workload;
};

/**
 * Protocol scratch of one iteration that is live at the end of its
 * cooldown polling — the live-point capture point. Everything the
 * rest of the iteration reads, so an iteration resumed from a saved
 * copy finishes exactly like one that ran straight through.
 */
struct AccubenchProgress
{
    /** warmupTime and cooldownReachedTarget are filled so far. */
    IterationResult result;

    Time warmupStart;
    Time warmupEnd;
    Joules e0{0.0};
    Time cooldownStart;
    Time cooldownDeadline;
    Time pollEnd;

    /** Deadline of the last simulator run (warmup end or a poll). */
    Time deadline;
};

/**
 * Run one ACCUBENCH iteration on a device.
 *
 * The device must already be registered with the simulator (and, if
 * applicable, placed in a Thermabox that is also registered). The
 * call drives the simulator forward through the three phases and
 * returns the scored result. It is startAccubenchIteration() followed
 * by finishAccubenchIteration().
 *
 * @param sim the simulation loop to advance.
 * @param device the device under test.
 * @param cfg technique parameters.
 * @param trace optional trace to annotate with the "phase" channel
 *        (the device should already be recording into the same trace).
 */
IterationResult runAccubenchIteration(Simulator &sim, Device &device,
                                      const AccubenchConfig &cfg,
                                      Trace *trace = nullptr);

/** Warmup, then cooldown polling up to the capture point. */
AccubenchProgress startAccubenchIteration(Simulator &sim, Device &device,
                                          const AccubenchConfig &cfg,
                                          Trace *trace);

/** Cooldown exit and the workload phase: the rest of the iteration. */
IterationResult finishAccubenchIteration(Simulator &sim, Device &device,
                                         const AccubenchConfig &cfg,
                                         Trace *trace,
                                         const AccubenchProgress &progress);

} // namespace pvar

#endif // PVAR_ACCUBENCH_ACCUBENCH_HH
