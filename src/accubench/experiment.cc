#include "accubench/experiment.hh"

#include <memory>

#include "accubench/live_point.hh"
#include "power/monsoon.hh"
#include "sim/logging.hh"

namespace pvar
{

ExperimentResult
runExperiment(Device &device, const ExperimentConfig &cfg)
{
    ExperimentResult result;
    result.unitId = device.unitId();
    result.model = device.model();
    result.socName = device.socName();

    Simulator sim(cfg.dt);
    Thermabox box(cfg.thermabox);

    // Chamber first, device second: the box pins the ambient the
    // device sees during the same step.
    sim.add(&box);
    sim.add(&device);
    box.placeDevice(&device);

    // -- Solver -------------------------------------------------------------
    if (cfg.solver == SolverKind::Fast) {
        sim.setEventDriven(true);
        device.setThermalSolver(SolverKind::Fast);
        box.setSolver(SolverKind::Fast);
    }

    // -- Power source -------------------------------------------------------
    std::unique_ptr<Monsoon> monsoon;
    switch (cfg.supply) {
      case SupplyChoice::MonsoonNominal:
        monsoon = std::make_unique<Monsoon>(device.config().battery.nominal);
        device.attachExternalSupply(monsoon.get());
        break;
      case SupplyChoice::MonsoonExplicit:
        monsoon = std::make_unique<Monsoon>(cfg.monsoonVoltage);
        device.attachExternalSupply(monsoon.get());
        break;
      case SupplyChoice::Battery:
        device.attachExternalSupply(nullptr);
        device.battery().setStateOfCharge(cfg.batterySoc);
        break;
    }

    // -- DVFS mode ----------------------------------------------------------
    if (cfg.mode == WorkloadMode::FixedFrequency)
        device.setFixedFrequency(cfg.fixedFrequency);
    else
        device.setPerformanceMode();

    device.resetExperimentState();
    device.setSuspendAllowed(false);
    if (cfg.soakFirst)
        device.soakTo(box.airTemp());
    Trace *trace = cfg.trace ? &result.trace : nullptr;
    device.attachTrace(trace);

    // -- Live point: restore the capture-point state if one is stored.
    // Last in the setup, so the restored bytes land on top of a fully
    // wired cold device (solver and supply resolved). A traced run
    // records its prefix, so it never uses one.
    AccubenchProgress progress;
    LivePointState live{sim, box, device, progress};
    bool live_points = !cfg.trace && cfg.livePoints &&
                       !cfg.livePointKey.empty() && cfg.iterations > 0;
    bool restored = false;
    if (live_points) {
        std::string value;
        restored = cfg.livePoints->fetch(cfg.livePointKey, value) &&
                   restoreLivePoint(live, value);
    }

    // -- Confirm the chamber is in band (the app's first step). -------------
    if (!restored) {
        bool stable = sim.runUntilCondition([&box] { return box.stable(); },
                                            sim.now() + Time::minutes(30));
        if (!stable)
            warn("runExperiment: thermabox failed to stabilize; "
                 "proceeding anyway");
    }

    // -- N back-to-back iterations. ------------------------------------------
    for (int i = 0; i < cfg.iterations; ++i) {
        if (i > 0 || !restored) {
            progress = startAccubenchIteration(sim, device, cfg.accubench,
                                               trace);
            if (i == 0 && live_points)
                captureLivePoint(*cfg.livePoints, cfg.livePointKey, live);
        }
        result.iterations.push_back(finishAccubenchIteration(
            sim, device, cfg.accubench, trace, progress));
    }

    // -- Restore the device for the next experiment. -------------------------
    device.attachTrace(nullptr);
    device.attachExternalSupply(nullptr);
    device.setPerformanceMode();
    device.setThermalSolver(SolverKind::Stepped);

    return result;
}

} // namespace pvar
