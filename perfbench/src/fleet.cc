/**
 * @file
 * The fleet phase: the calibrated five-SoC Table II fleet (18 units x
 * 2 modes, 5 iterations) through runFullStudy().
 *
 * One repetition writes a fresh durable store with a cold fast and a
 * cold stepped study, closes it, then reopens it in a new DurableCache
 * and reruns both studies warm, kRestarts times. The short fast study
 * then runs cold kExtraFast more times, each into a fresh store, so it
 * has more samples than the longer figures. Each figure is the median
 * of its samples over the run. Gates: cold
 * and warm report bytes are identical per solver (and identical across
 * repetitions), a warm pass computes nothing, and fast stays within 1%
 * of stepped.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "phases.hh"
#include "probes.hh"
#include "report/json.hh"
#include "store/durable_cache.hh"

namespace perfbench
{

namespace
{

struct Pass
{
    std::vector<pvar::SocStudy> studies;
    std::string json;
    double wallS = 0.0;
    double cpuS = 0.0;
    double serializeS = 0.0;
};

/** Batch width 0 is the engine default; 1 forces the unbatched path. */
Pass
runPass(const Options &o, pvar::SolverKind solver, int batch,
        pvar::ExperimentCache *cache)
{
    pvar::StudyConfig cfg;
    cfg.iterations = o.tiny ? 1 : 5;
    cfg.solver = solver;
    cfg.jobs = o.jobs;
    cfg.batch = batch;
    cfg.cache = cache;

    Pass p;
    double cpu0 = cpuSeconds();
    Clock::time_point t0 = Clock::now();
    if (o.tiny) {
        const auto &reg = pvar::DeviceRegistry::builtin();
        p.studies = pvar::runStudy({&reg.at("SD-805")}, cfg);
    } else {
        p.studies = pvar::runFullStudy(cfg);
    }
    Clock::time_point t1 = Clock::now();
    p.json = pvar::toJson(p.studies) + "\n";
    p.wallS = secondsSince(t0);
    p.serializeS = std::chrono::duration<double>(Clock::now() - t1).count();
    p.cpuS = cpuSeconds() - cpu0;
    return p;
}

/**
 * Largest relative deviation of fast from stepped, percent, over
 * per-unit mean scores and energies of both modes.
 */
double
fastErrorPct(const std::vector<pvar::SocStudy> &stepped,
             std::vector<pvar::SocStudy> fast, Inject inject)
{
    if (inject == Inject::FastDeviation && !fast.empty() &&
        !fast[0].units.empty())
        fast[0].units[0].meanScore *= 1.02;
    double worst = 0.0;
    auto dev = [&](double s, double f) {
        if (s != 0.0)
            worst = std::max(worst, std::fabs(f - s) / std::fabs(s));
    };
    for (std::size_t i = 0; i < stepped.size() && i < fast.size(); ++i) {
        const auto &su = stepped[i].units;
        const auto &fu = fast[i].units;
        for (std::size_t u = 0; u < su.size() && u < fu.size(); ++u) {
            dev(su[u].meanScore, fu[u].meanScore);
            dev(su[u].meanFixedScore, fu[u].meanFixedScore);
            dev(su[u].meanUnconstrainedEnergyJ,
                fu[u].meanUnconstrainedEnergyJ);
            dev(su[u].meanFixedEnergyJ, fu[u].meanFixedEnergyJ);
        }
    }
    return 100.0 * worst;
}

std::uint64_t
retries(const std::vector<pvar::SocStudy> &studies)
{
    std::uint64_t n = 0;
    for (const pvar::SocStudy &s : studies)
        for (const pvar::UnitOutcome &u : s.units)
            n += (u.unconstrainedAttempts - 1) + (u.fixedAttempts - 1);
    return n;
}

std::string
logPath(const std::string &dir)
{
    return dir + "/experiments.log";
}

/** Warm reruns from the reopened store, per repetition. */
constexpr int kRestarts = 2;
/** Extra cold fast studies into fresh stores, per repetition. */
constexpr int kExtraFast = 2;

} // namespace

namespace
{

class FleetPhase : public Phase
{
  public:
    FleetPhase(const Options &o, Report &rep)
        : _o(o), _rep(rep), _dir(o.workdir + "/fleet")
    {
    }

    void step() override
    {
        const Options &o = _o;
        freshDir(_dir);
        Clock::time_point t0 = Clock::now();
        auto cache = std::make_unique<pvar::DurableCache>(_dir);
        _setup.push_back(secondsSince(t0));

        Pass f = coldFast(cache.get());
        Pass s = runPass(o, pvar::SolverKind::Stepped, 0, cache.get());
        _stepped.push_back(s.wallS);
        cache.reset();
        if (o.inject == Inject::StoreRecord)
            dropLastRecord(logPath(_dir));

        for (int r = 0; r < kRestarts; ++r) {
            t0 = Clock::now();
            cache = std::make_unique<pvar::DurableCache>(_dir);
            Pass ws = runPass(o, pvar::SolverKind::Stepped, 0, cache.get());
            Pass wf = runPass(o, pvar::SolverKind::Fast, 0, cache.get());
            _restart.push_back(secondsSince(t0));

            pvar::ExperimentStoreStats st = cache->storeStats();
            cache.reset();
            _rep.gate(st.misses == 0 && st.appends == 0,
                      "fleet: warm pass computed " +
                          std::to_string(st.misses) + " experiments");
            _rep.gate(ws.json == s.json,
                      "fleet: warm stepped bytes != cold");
            _rep.gate(wf.json == f.json, "fleet: warm fast bytes != cold");
        }
        if (_refStepped.empty()) {
            _refStepped = s.json;
            _refFast = f.json;
            _errPct = fastErrorPct(s.studies, f.studies, o.inject);
        }
        _rep.gate(s.json == _refStepped,
                  "fleet: stepped bytes differ between repetitions");
        _rep.gate(f.json == _refFast,
                  "fleet: fast bytes differ between repetitions");

        for (int e = 0; e < kExtraFast; ++e) {
            freshDir(_dir);
            cache = std::make_unique<pvar::DurableCache>(_dir);
            _rep.gate(coldFast(cache.get()).json == _refFast,
                      "fleet: fast bytes differ between repetitions");
            cache.reset();
        }
        std::filesystem::remove_all(_dir);
        _rep.countOps(2 + 2 * kRestarts + kExtraFast, 0);
    }

    void finish(std::vector<double> &setup_s) override
    {
        note("fleet: %zu reps, stepped %.3f s, fast %.3f s, restart %.3f s "
             "(medians; ranges %.3f-%.3f, %.3f-%.3f, %.3f-%.3f)",
             _stepped.size(), median(_stepped), median(_fast),
             median(_restart), minOf(_stepped), maxOf(_stepped),
             minOf(_fast), maxOf(_fast), minOf(_restart), maxOf(_restart));
        _rep.gate(_errPct <= 1.0, "fleet: fast deviates " +
                                      std::to_string(_errPct) +
                                      "% from stepped (limit 1%)");
        _rep.add("study_stepped_s", median(_stepped), "s");
        _rep.add("study_fast_s", median(_fast), "s");
        _rep.add("restart_s", median(_restart), "s");
        _rep.add("fast_err_pct", _errPct, "%");
        setup_s.push_back(median(_setup));
    }

  private:
    const Options &_o;
    Report &_rep;
    const std::string _dir;
    std::vector<double> _setup, _stepped, _fast, _restart;
    std::string _refStepped, _refFast;
    double _errPct = 0.0;

    Pass coldFast(pvar::ExperimentCache *cache)
    {
        Pass f = runPass(_o, pvar::SolverKind::Fast, 0, cache);
        _fast.push_back(f.wallS);
        return f;
    }
};

} // namespace

std::unique_ptr<Phase>
fleetPhase(const Options &o, Report &rep)
{
    return std::make_unique<FleetPhase>(o, rep);
}

void
fleetTraced(const Options &o, Report &rep)
{
    using pvar::SolverKind;
    const std::string base = o.workdir + "/fleet-traced";

    // Untraced passes at the end-to-end settings: CPU use, and the
    // baseline the traced passes are compared against.
    std::string dir = base + "/plain";
    freshDir(dir);
    auto cache = std::make_unique<pvar::DurableCache>(dir);
    Pass s = runPass(o, SolverKind::Stepped, 0, cache.get());
    Pass f = runPass(o, SolverKind::Fast, 0, cache.get());
    cache.reset();
    Clock::time_point t0 = Clock::now();
    double cpu0 = cpuSeconds();
    cache = std::make_unique<pvar::DurableCache>(dir);
    Pass ws = runPass(o, SolverKind::Stepped, 0, cache.get());
    Pass wf = runPass(o, SolverKind::Fast, 0, cache.get());
    double warm_wall = secondsSince(t0);
    double warm_cpu = cpuSeconds() - cpu0;
    cache.reset();

    // The traced fast pass runs unbatched, so every experiment passes
    // through getOrCompute() where its compute can be timed; its
    // untraced twin is the overhead baseline.
    dir = base + "/plain-unbatched";
    freshDir(dir);
    cache = std::make_unique<pvar::DurableCache>(dir);
    Pass f1 = runPass(o, SolverKind::Fast, 1, cache.get());
    cache.reset();

    dir = base + "/traced";
    freshDir(dir);
    cache = std::make_unique<pvar::DurableCache>(dir);
    ProbedCache probe_s(*cache);
    Pass ts = runPass(o, SolverKind::Stepped, 0, &probe_s);
    ProbedCache probe_f(*cache);
    Pass tf = runPass(o, SolverKind::Fast, 1, &probe_f);
    cache.reset();
    std::uint64_t result_bytes = fileBytes(logPath(dir));

    t0 = Clock::now();
    cache = std::make_unique<pvar::DurableCache>(dir);
    double open_s = secondsSince(t0);
    ProbedCache probe_w(*cache);
    Pass tws = runPass(o, SolverKind::Stepped, 0, &probe_w);
    Pass twf = runPass(o, SolverKind::Fast, 0, &probe_w);
    double traced_warm_wall = secondsSince(t0);
    cache.reset();
    std::filesystem::remove_all(base);

    rep.countOps(9, 0); // study passes above
    for (const Pass *p : {&ws, &ts, &tws})
        rep.gate(p->json == s.json,
                 "fleet traced: stepped bytes differ from untraced");
    for (const Pass *p : {&wf, &f1, &tf, &twf})
        rep.gate(p->json == f.json,
                 "fleet traced: fast bytes differ from untraced");

    // Report serialisation, timed on its own a few times.
    std::vector<double> ser_ms;
    for (int i = 0; i < 5; ++i) {
        Clock::time_point a = Clock::now();
        std::string js = pvar::toJson(s.studies);
        ser_ms.push_back(secondsSince(a) * 1e3);
    }

    CacheProbeStats ps = probe_s.stats(), pf = probe_f.stats(),
                    pw = probe_w.stats();
    auto sumMs = [](const std::vector<double> &v) {
        double t = 0.0;
        for (double x : v)
            t += x;
        return t;
    };
    double jobs = static_cast<double>(o.jobs);
    auto overhead = [](double traced, double plain) {
        return 100.0 * (traced - plain) / plain;
    };

    rep.add("accubench.experiments.fleet_stepped",
            static_cast<double>(ps.computeMs.size()), "count");
    rep.add("accubench.experiments.fleet_fast",
            static_cast<double>(pf.computeMs.size()), "count");
    rep.add("accubench.retries.fleet_stepped",
            static_cast<double>(retries(ts.studies)), "count");
    rep.add("accubench.retries.fleet_fast",
            static_cast<double>(retries(tf.studies)), "count");
    rep.add("accubench.experiment_ms_p50.fleet_stepped",
            median(ps.computeMs), "ms");
    rep.add("accubench.experiment_ms_max.fleet_stepped",
            maxOf(ps.computeMs), "ms");
    rep.add("accubench.experiment_ms_p50.fleet_fast", median(pf.computeMs),
            "ms");
    rep.add("accubench.experiment_ms_max.fleet_fast", maxOf(pf.computeMs),
            "ms");
    rep.add("accubench.sim_s_per_host_s.stepped",
            ps.computeSimS / (sumMs(ps.computeMs) / 1e3), "s/s");
    rep.add("accubench.sim_s_per_host_s.fast",
            pf.computeSimS / (sumMs(pf.computeMs) / 1e3), "s/s");

    rep.add("sim.cpu_util.fleet_stepped", s.cpuS / (s.wallS * jobs), "ratio");
    rep.add("sim.cpu_util.fleet_fast", f.cpuS / (f.wallS * jobs), "ratio");
    rep.add("sim.cpu_util.fleet_warm", warm_cpu / (warm_wall * jobs), "ratio");
    rep.add("sim.trace_samples_per_experiment.fleet",
            static_cast<double>(pw.traceSamples) /
                static_cast<double>(std::max<std::uint64_t>(pw.results, 1)),
            "count");

    rep.add("store.open_ms", open_s * 1e3, "ms");
    rep.add("store.result_bytes", static_cast<double>(result_bytes), "bytes");
    rep.add("store.get_us",
            pw.getS / static_cast<double>(std::max<std::uint64_t>(pw.gets, 1)) *
                1e6,
            "us");
    std::uint64_t puts = ps.puts + pf.puts;
    rep.add("store.put_us",
            (ps.putS + pf.putS) /
                static_cast<double>(std::max<std::uint64_t>(puts, 1)) * 1e6,
            "us");
    rep.add("store.hit_ratio",
            static_cast<double>(pw.hits) /
                static_cast<double>(std::max<std::uint64_t>(pw.gets, 1)),
            "ratio");
    rep.gate(pw.hits == pw.gets, "fleet traced: warm pass missed the store");

    rep.add("report.serialize_ms", median(ser_ms), "ms");
    rep.add("report.bytes", static_cast<double>(s.json.size()), "bytes");

    rep.add("bench.trace_overhead_pct.fleet_stepped",
            overhead(ts.wallS, s.wallS), "%");
    rep.add("bench.trace_overhead_pct.fleet_fast",
            overhead(tf.wallS, f1.wallS), "%");
    rep.add("bench.trace_overhead_pct.fleet_warm",
            overhead(traced_warm_wall, warm_wall), "%");

    // Attributed: thread-seconds inside probed layers over the pass's
    // thread capacity (wall x jobs); the report is serialised on one
    // thread after the fan-out.
    auto attributed = [&](const CacheProbeStats &p, const Pass &pass,
                          double wall, double extra_s) {
        double busy = sumMs(p.computeMs) / 1e3 + p.getS + p.putS +
                      extra_s + pass.serializeS * jobs;
        return 100.0 * busy / (wall * jobs);
    };
    rep.add("bench.attributed_pct.fleet_stepped",
            attributed(ps, ts, ts.wallS, 0.0), "%");
    rep.add("bench.attributed_pct.fleet_fast",
            attributed(pf, tf, tf.wallS, 0.0), "%");
    rep.add("bench.attributed_pct.fleet_warm",
            100.0 *
                (pw.getS + pw.putS +
                 (open_s + tws.serializeS + twf.serializeS) * jobs) /
                (traced_warm_wall * jobs),
            "%");
}

} // namespace perfbench
