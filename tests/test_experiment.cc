/**
 * @file
 * Tests for the experiment runner (thermabox + supply + N iterations)
 * and the study-level byte contracts it carries: a golden full-study
 * capture, fault-plan replay across jobs counts, and warm-cache reruns.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "accubench/experiment.hh"
#include "accubench/protocol.hh"
#include "device/catalog.hh"
#include "fault/fault.hh"
#include "report/json.hh"
#include "sim/logging.hh"
#include "store/result_cache.hh"

namespace pvar
{
namespace
{

ExperimentConfig
quickConfig()
{
    ExperimentConfig cfg;
    cfg.iterations = 2;
    cfg.accubench.warmupDuration = Time::sec(30);
    cfg.accubench.workloadDuration = Time::sec(60);
    cfg.accubench.cooldownTarget = Celsius(34.0);
    return cfg;
}

TEST(Experiment, RunsRequestedIterations)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentResult r = runExperiment(*d, quickConfig());
    ASSERT_EQ(r.iterations.size(), 2u);
    EXPECT_EQ(r.unitId, "x");
    EXPECT_EQ(r.model, "Nexus 5");
    EXPECT_EQ(r.socName, "SD-800");
    for (const auto &it : r.iterations) {
        EXPECT_GT(it.score, 0.0);
        EXPECT_GT(it.workloadEnergy.value(), 0.0);
    }
}

TEST(Experiment, SummariesMatchIterations)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentResult r = runExperiment(*d, quickConfig());
    double sum = 0.0;
    for (const auto &it : r.iterations)
        sum += it.score;
    EXPECT_NEAR(r.meanScore(), sum / 2.0, 1e-9);
    EXPECT_GE(r.scoreRsdPercent(), 0.0);
}

TEST(Experiment, FixedFrequencyModePins)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentConfig cfg = quickConfig();
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(960);
    ExperimentResult r = runExperiment(*d, cfg);

    // 4 cores at 960 MHz / 2.6e9 cyc for 60 s.
    double expected = 4.0 * 0.96e9 / 2.6e9 * 60.0;
    for (const auto &it : r.iterations)
        EXPECT_NEAR(it.score, expected, expected * 0.01);
}

TEST(Experiment, UnconstrainedOutscoresFixed)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentResult unc = runExperiment(*d, quickConfig());
    ExperimentConfig fix_cfg = quickConfig();
    fix_cfg.mode = WorkloadMode::FixedFrequency;
    fix_cfg.fixedFrequency = MegaHertz(1190);
    ExperimentResult fix = runExperiment(*d, fix_cfg);
    EXPECT_GT(unc.meanScore(), fix.meanScore());
}

TEST(Experiment, MonsoonVoltageChoicesWork)
{
    auto d = makeLgG5(UnitCorner{"g5", 0, 0, 0});

    ExperimentConfig nominal = quickConfig();
    nominal.supply = SupplyChoice::MonsoonNominal; // 3.85 V -> throttled
    ExperimentResult low = runExperiment(*d, nominal);

    ExperimentConfig high = quickConfig();
    high.supply = SupplyChoice::MonsoonExplicit;
    high.monsoonVoltage = Volts(4.40);
    ExperimentResult full = runExperiment(*d, high);

    // The Fig 10 anomaly: nominal-voltage supply loses ~20%.
    EXPECT_LT(low.meanScore(), full.meanScore() * 0.9);
}

TEST(Experiment, BatterySupplyMatchesHighVoltageMonsoon)
{
    auto d = makeLgG5(UnitCorner{"g5", 0, 0, 0});

    ExperimentConfig batt = quickConfig();
    batt.supply = SupplyChoice::Battery;
    batt.batterySoc = 0.95;
    ExperimentResult on_battery = runExperiment(*d, batt);

    ExperimentConfig mon = quickConfig();
    mon.supply = SupplyChoice::MonsoonExplicit;
    mon.monsoonVoltage = Volts(4.40);
    ExperimentResult on_monsoon = runExperiment(*d, mon);

    EXPECT_NEAR(on_battery.meanScore() / on_monsoon.meanScore(), 1.0,
                0.03);
}

TEST(Experiment, TraceCoversWholeRun)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentResult r = runExperiment(*d, quickConfig());
    ASSERT_TRUE(r.trace.hasChannel("die_temp"));
    const auto &ch = r.trace.channel("die_temp");
    // Box stabilization + 2 iterations at >= 90 s each.
    EXPECT_GT(ch.samples().back().when, Time::minutes(3));
}

/** Run quickConfig() on a fresh Nexus 5 with the given solver and trace. */
ExperimentResult
runQuick(SolverKind solver, bool trace, LivePointCache *live = nullptr)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentConfig cfg = quickConfig();
    cfg.solver = solver;
    cfg.trace = trace;
    if (live) {
        cfg.livePoints = live;
        cfg.livePointKey = trace ? "traced" : "untraced";
    }
    return runExperiment(*d, cfg);
}

/** Traced and untraced runs must agree on every reported byte. */
void
expectSameIterations(const ExperimentResult &traced,
                     const ExperimentResult &untraced)
{
    ASSERT_EQ(traced.iterations.size(), untraced.iterations.size());
    for (std::size_t i = 0; i < traced.iterations.size(); ++i) {
        EXPECT_EQ(traced.iterations[i].score, untraced.iterations[i].score);
        EXPECT_EQ(traced.iterations[i].totalEnergy.value(),
                  untraced.iterations[i].totalEnergy.value());
    }
    EXPECT_EQ(toJson(traced), toJson(untraced));
    EXPECT_FALSE(traced.trace.channelNames().empty());
    EXPECT_TRUE(untraced.trace.channelNames().empty());
}

TEST(Experiment, UntracedRunMatchesTracedPerSolver)
{
    for (SolverKind solver : {SolverKind::Stepped, SolverKind::Fast}) {
        SCOPED_TRACE(solverKindName(solver));
        expectSameIterations(runQuick(solver, true),
                             runQuick(solver, false));
    }
}

/** Counts restores, so a warm rerun provably skipped its prefix. */
class CountingLivePoints : public MemoryLivePointCache
{
  public:
    bool
    fetch(const std::string &key, std::string &out) override
    {
        bool hit = MemoryLivePointCache::fetch(key, out);
        hits += hit ? 1 : 0;
        return hit;
    }

    int hits = 0;
};

TEST(Experiment, UntracedLivePointWarmRerunMatchesTraced)
{
    CountingLivePoints live;
    ExperimentResult traced = runQuick(SolverKind::Fast, true);
    ExperimentResult cold = runQuick(SolverKind::Fast, false, &live);
    ExperimentResult warm = runQuick(SolverKind::Fast, false, &live);
    EXPECT_EQ(live.size(), 1u);
    EXPECT_EQ(live.hits, 1);
    expectSameIterations(traced, cold);
    expectSameIterations(traced, warm);
}

TEST(Experiment, DeviceRestoredAfterRun)
{
    auto d = makeNexus5(2, UnitCorner{"x", 0, 0, 0});
    ExperimentConfig cfg = quickConfig();
    cfg.mode = WorkloadMode::FixedFrequency;
    cfg.fixedFrequency = MegaHertz(300);
    runExperiment(*d, cfg);
    EXPECT_EQ(d->wakelockCount(), 0);
    EXPECT_FALSE(d->workloadRunning());
}

TEST(Experiment, HotterAmbientCostsEnergy)
{
    // The Fig 2 mechanism in miniature: same work at higher chamber
    // temperature needs more energy.
    auto d = makeNexus5(2, UnitCorner{"x", 0.5, 0.2, 0});
    ExperimentConfig cool = quickConfig();
    cool.mode = WorkloadMode::FixedFrequency;
    cool.fixedFrequency = MegaHertz(1574);
    cool.thermabox.target = Celsius(15.0);
    cool.accubench.cooldownTarget = Celsius(25.0);

    ExperimentConfig hot = cool;
    hot.thermabox.target = Celsius(40.0);
    hot.accubench.cooldownTarget = Celsius(48.0);

    ExperimentResult cold_r = runExperiment(*d, cool);
    ExperimentResult hot_r = runExperiment(*d, hot);

    EXPECT_GT(hot_r.meanWorkloadEnergy().value(),
              cold_r.meanWorkloadEnergy().value() * 1.05);
    // Same frequency, same work.
    EXPECT_NEAR(hot_r.meanScore(), cold_r.meanScore(),
                cold_r.meanScore() * 0.01);
}

// ---------------------------------------------------------------------
// Study-level byte contracts.
// ---------------------------------------------------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

/** The study pvar_study runs for the golden capture. */
StudyConfig
goldenStudyConfig(int jobs)
{
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.jobs = jobs;
    cfg.solver = SolverKind::Fast;
    return cfg;
}

/** Shortened fast-solver experiments for multi-run studies. */
StudyConfig
quickStudyConfig(int jobs)
{
    StudyConfig cfg;
    cfg.iterations = 1;
    cfg.jobs = jobs;
    cfg.solver = SolverKind::Fast;
    cfg.accubench.warmupDuration = Time::sec(20);
    cfg.accubench.workloadDuration = Time::sec(30);
    cfg.accubench.cooldownTimeout = Time::minutes(5);
    return cfg;
}

class QuietScope
{
  public:
    QuietScope() : _old(setLogLevel(LogLevel::Quiet)) {}
    ~QuietScope() { setLogLevel(_old); }

  private:
    LogLevel _old;
};

/**
 * data/full_study_fast_iter1.json is the byte-exact output of
 * `pvar_study --iterations 1 --jobs 1 --solver fast --json`. Serial
 * and parallel runs must both reproduce it exactly.
 */
TEST(Experiment, FullStudyMatchesPreBatchGolden)
{
    std::string golden =
        readFile(std::string(PVAR_TEST_DATA_DIR) +
                 "/full_study_fast_iter1.json");
    ASSERT_FALSE(golden.empty());

    QuietScope quiet;
    // The tool appends one newline after the document.
    EXPECT_EQ(toJson(runFullStudy(goldenStudyConfig(1))) + "\n", golden);
    EXPECT_EQ(toJson(runFullStudy(goldenStudyConfig(4))) + "\n", golden);
}

/** Install a plan for one test; always uninstalls on scope exit. */
class PlanGuard
{
  public:
    explicit PlanGuard(FaultPlan plan)
    {
        installFaultPlan(std::make_shared<FaultPlan>(std::move(plan)));
    }
    ~PlanGuard() { clearFaultPlan(); }
};

TEST(Experiment, FaultedStudyIsBitIdenticalAcrossJobs)
{
    FaultPlan plan(20250808);
    FaultRule rule;
    rule.site = FaultSite::ExperimentRun;
    rule.kind = FaultKind::Transient;
    rule.probability = 0.35;
    plan.addRule(rule);
    PlanGuard guard(std::move(plan));

    QuietScope quiet;
    SocStudy j1 = runSocStudy("SD-805", quickStudyConfig(1));
    SocStudy j4 = runSocStudy("SD-805", quickStudyConfig(4));
    EXPECT_EQ(toJson(j1), toJson(j4));
    // The retry supervisor's attempt counters must match too — the
    // per-(task, attempt) fault scopes are part of the invariant.
    ASSERT_EQ(j1.units.size(), j4.units.size());
    for (std::size_t i = 0; i < j1.units.size(); ++i) {
        EXPECT_EQ(j1.units[i].unconstrainedAttempts,
                  j4.units[i].unconstrainedAttempts);
        EXPECT_EQ(j1.units[i].fixedAttempts, j4.units[i].fixedAttempts);
    }
}

TEST(Experiment, WarmCacheServesStudy)
{
    QuietScope quiet;
    ResultCache cache;
    StudyConfig cfg = quickStudyConfig(2);
    cfg.cache = &cache;
    SocStudy cold = runSocStudy("SD-805", cfg);
    std::uint64_t cold_misses = cache.stats().misses;
    SocStudy warm = runSocStudy("SD-805", cfg);

    EXPECT_EQ(toJson(cold), toJson(warm));
    // Every warm experiment is served from the cache: no new misses.
    EXPECT_EQ(cache.stats().misses, cold_misses);
    EXPECT_GE(cache.stats().hits, 6u); // 3 units x 2 modes
}

} // namespace
} // namespace pvar
