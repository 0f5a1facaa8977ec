/**
 * @file
 * The crowd phase: a 1M-die SD-821 population drawn from the benchmark
 * seed, characterised to a 1% CI target (32 rounds x 16 strata = 512
 * sampled dies) with the fast solver at the default cohort width.
 *
 * One repetition runs the study cold into a fresh store, capturing a
 * live point per sampled die, then reopens the store and reruns the
 * study warm from those live points. Gates: warm bytes equal cold
 * bytes (and every repetition's bytes agree), and every warm live-point
 * fetch hits.
 */

#include <filesystem>
#include <memory>

#include "device/fleet.hh"
#include "phases.hh"
#include "probes.hh"
#include "sampling/population.hh"
#include "sampling/sampler.hh"
#include "store/durable_cache.hh"

namespace perfbench
{

namespace
{

struct Pass
{
    pvar::CrowdStudyResult result;
    std::string json;
    double wallS = 0.0;
    double cpuS = 0.0;
};

pvar::CrowdStudyConfig
crowdConfig(const Options &o)
{
    pvar::CrowdStudyConfig cfg;
    // The population seed is the benchmark seed's own draw, so each
    // benchmark seed characterises a different population.
    cfg.population.seed = SplitMix(o.seed ^ 0x63726f7764ULL).next() >> 33;
    if (o.tiny) {
        cfg.population.size = 20000;
        cfg.strata = 4;
        cfg.minRounds = 2;
        cfg.maxRounds = 2;
    } else {
        cfg.population.size = 1000000;
        cfg.ciTargetPercent = 1.0;
    }
    cfg.jobs = o.jobs;
    return cfg;
}

Pass
runPass(pvar::CrowdStudyConfig cfg, int batch, pvar::LivePointCache *lp)
{
    cfg.batch = batch;
    cfg.livePoints = lp;
    Pass p;
    double cpu0 = cpuSeconds();
    Clock::time_point t0 = Clock::now();
    p.result = pvar::runCrowdStudy(cfg);
    p.json = pvar::crowdStudyJson(p.result) + "\n";
    p.wallS = secondsSince(t0);
    p.cpuS = cpuSeconds() - cpu0;
    return p;
}

/** A store on a directory with the live-point view over it. */
struct LivePointStore
{
    explicit LivePointStore(const std::string &dir) : store(dir), lp(store) {}

    pvar::ExperimentStore store;
    pvar::DurableLivePointCache lp;
};

std::unique_ptr<LivePointStore>
openStore(const std::string &dir)
{
    return std::make_unique<LivePointStore>(dir);
}

double
diesPerSecond(const Pass &p, double wall_s)
{
    return static_cast<double>(p.result.sampled) / wall_s;
}

std::string
logPath(const std::string &dir)
{
    return dir + "/experiments.log";
}

double
hitRatio(const pvar::ExperimentStoreStats &st)
{
    std::uint64_t n = st.hits + st.misses;
    return n ? static_cast<double>(st.hits) / static_cast<double>(n) : 0.0;
}

} // namespace

namespace
{

class CrowdPhase : public Phase
{
  public:
    CrowdPhase(const Options &o, Report &rep)
        : _o(o), _rep(rep), _dir(o.workdir + "/crowd"),
          _cfg(crowdConfig(o))
    {
    }

    void step() override
    {
        freshDir(_dir);
        Clock::time_point t0 = Clock::now();
        auto store = openStore(_dir);
        _setup.push_back(secondsSince(t0));
        Pass c = runPass(_cfg, 0, &store->lp);
        _cold.push_back(diesPerSecond(c, c.wallS));
        store.reset();
        if (_o.inject == Inject::StoreRecord)
            dropLastRecord(logPath(_dir));

        // The warm pass is a rerun: it pays for reopening the store.
        t0 = Clock::now();
        store = openStore(_dir);
        Pass w = runPass(_cfg, 0, &store->lp);
        _warm.push_back(diesPerSecond(w, secondsSince(t0)));

        double hits = hitRatio(store->store.stats());
        store.reset();
        std::filesystem::remove_all(_dir);
        _rep.gate(hits == 1.0, "crowd: warm live-point hit ratio " +
                                   std::to_string(hits) + " != 1");
        _rep.gate(w.json == c.json, "crowd: warm bytes != cold bytes");
        if (_ref.empty())
            _ref = c.json;
        _rep.gate(c.json == _ref, "crowd: bytes differ between repetitions");
        _rep.countOps(2, 0);
    }

    void finish(std::vector<double> &setup_s) override
    {
        note("crowd: %zu reps, cold %.1f dies/s, warm %.1f dies/s (medians; "
             "ranges %.1f-%.1f, %.1f-%.1f)",
             _cold.size(), median(_cold), median(_warm), minOf(_cold),
             maxOf(_cold), minOf(_warm), maxOf(_warm));
        _rep.add("crowd_cold_dies_per_s", median(_cold), "dies/s");
        _rep.add("crowd_warm_dies_per_s", median(_warm), "dies/s");
        setup_s.push_back(median(_setup));
    }

  private:
    const Options &_o;
    Report &_rep;
    const std::string _dir;
    const pvar::CrowdStudyConfig _cfg;
    std::vector<double> _setup, _cold, _warm;
    std::string _ref;
};

} // namespace

std::unique_ptr<Phase>
crowdPhase(const Options &o, Report &rep)
{
    return std::make_unique<CrowdPhase>(o, rep);
}

void
crowdTraced(const Options &o, Report &rep)
{
    const std::string base = o.workdir + "/crowd-traced";
    const pvar::CrowdStudyConfig cfg = crowdConfig(o);
    double jobs = static_cast<double>(o.jobs);

    // Untraced at the end-to-end settings: CPU use and the warm baseline;
    // then unbatched, the traced cold pass's twin.
    const std::string plain = base + "/plain", plain1 = base + "/plain1",
                      traced = base + "/traced";
    for (const std::string &d : {plain, plain1, traced})
        freshDir(d);
    Pass c = runPass(cfg, 0, &openStore(plain)->lp);
    Pass w = runPass(cfg, 0, &openStore(plain)->lp);
    Pass c1 = runPass(cfg, 1, &openStore(plain1)->lp);

    auto store = openStore(traced);
    ProbedLivePoints probe_c(store->lp);
    Pass tc = runPass(cfg, 1, &probe_c);
    std::uint64_t lp_bytes = store->store.stats().livePointBytes;
    store.reset(); // close before reopening
    store = openStore(traced);
    ProbedLivePoints probe_w(store->lp);
    Pass tw = runPass(cfg, 0, &probe_w);
    store.reset();
    std::filesystem::remove_all(base);

    rep.countOps(5, 0); // study passes above
    for (const Pass *p : {&w, &c1, &tc, &tw})
        rep.gate(p->json == c.json,
                 "crowd traced: bytes differ from untraced");

    // Per-die layers, timed directly: the sampler builds each die with
    // makeUnitForSoc() and runs crowdDieExperiment()'s configuration.
    // A seeded draw of dies from the same population stands in for the
    // sampled set.
    std::vector<double> build_us, exp_ms;
    double sim_s = 0.0, host_s = 0.0, samples = 0.0;
    SplitMix pick(o.seed ^ 0x646965ULL);
    int dies = o.tiny ? 2 : 16;
    for (int i = 0; i < dies; ++i) {
        pvar::CrowdDie die =
            pvar::crowdDie(cfg.population, pick.below(cfg.population.size));
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<pvar::Device> dev =
            pvar::makeUnitForSoc(cfg.population.socName, die.corner);
        build_us.push_back(secondsSince(t0) * 1e6);
        pvar::ExperimentConfig ecfg = pvar::crowdDieExperiment(cfg, die);
        t0 = Clock::now();
        pvar::ExperimentResult r = pvar::runExperiment(*dev, ecfg);
        double s = secondsSince(t0);
        exp_ms.push_back(s * 1e3);
        host_s += s;
        sim_s += simulatedSeconds(r);
        samples += static_cast<double>(traceSamples(r));
    }

    LivePointProbeStats pc = probe_c.stats(), pw = probe_w.stats();
    auto perCall = [](double s, std::uint64_t n) {
        return n ? s / static_cast<double>(n) * 1e6 : 0.0;
    };
    rep.add("accubench.experiments.crowd", static_cast<double>(pc.stores),
            "count");
    rep.add("accubench.experiment_ms_p50.crowd", median(exp_ms), "ms");
    rep.add("accubench.experiment_ms_max.crowd", maxOf(exp_ms), "ms");
    rep.add("accubench.sim_s_per_host_s.crowd", sim_s / host_s, "s/s");
    rep.add("device.build_us", median(build_us), "us");
    rep.add("sim.cpu_util.crowd_cold", c.cpuS / (c.wallS * jobs), "ratio");
    rep.add("sim.cpu_util.crowd_warm", w.cpuS / (w.wallS * jobs), "ratio");
    rep.add("sim.trace_samples_per_experiment.crowd",
            samples / static_cast<double>(dies), "count");
    rep.add("store.live_point_bytes", static_cast<double>(lp_bytes), "bytes");
    rep.add("store.fetch_us", perCall(pw.fetchS, pw.fetches), "us");
    rep.add("store.store_us", perCall(pc.storeS, pc.stores), "us");
    double hit_ratio =
        pw.fetches ? static_cast<double>(pw.fetchHits) /
                         static_cast<double>(pw.fetches)
                   : 0.0;
    rep.add("sampling.live_point_hit_ratio", hit_ratio, "ratio");
    rep.gate(hit_ratio == 1.0, "crowd traced: warm live-point misses");
    rep.add("sampling.dies", static_cast<double>(tc.result.sampled),
            "count");
    rep.add("sampling.rounds", static_cast<double>(tc.result.rounds),
            "count");

    auto overhead = [](double traced, double plain) {
        return 100.0 * (traced - plain) / plain;
    };
    rep.add("bench.trace_overhead_pct.crowd_cold",
            overhead(tc.wallS, c1.wallS), "%");
    rep.add("bench.trace_overhead_pct.crowd_warm",
            overhead(tw.wallS, w.wallS), "%");
    rep.add("bench.attributed_pct.crowd_cold",
            100.0 * (pc.fetchS + pc.storeS) / (tc.wallS * jobs), "%");
    rep.add("bench.attributed_pct.crowd_warm",
            100.0 * (pw.fetchS + pw.storeS) / (tw.wallS * jobs), "%");
}

} // namespace perfbench
