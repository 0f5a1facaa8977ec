/**
 * @file
 * The serve phase: an in-process StudyService (memory LRU only, 2
 * workers, study jobs 1, fast solver, 1 iteration) driven over 4
 * keep-alive connections with a seeded request mix:
 *
 *   hit    70%  POST /study {"device": U}, U one of the 18 calibrated
 *               units; prefilled during set-up, so always cached
 *   miss   20%  POST /study {"device": U, "ambient": A}, A unique per
 *               request, so always computed
 *   crowd   5%  POST /crowd {"dies": 100000, "strata": 8, "seed": S}
 *   health  5%  GET /healthz
 *
 * A run draws one schedule of 16 blocks of 20 requests. Each block
 * holds exactly 14/4/1/1 of the classes: the crowd request first, the
 * rest in a seeded order. The 16 crowd requests use 16 distinct seeded
 * populations, one each, because a /crowd request costs 60-110 ms
 * depending on its population; a schedule's total work therefore
 * varies little from one benchmark seed to the next. Every sample of
 * the run replays that schedule (with fresh ambients, so misses stay
 * misses): open-loop at a fixed reference rate for latency, and closed
 * loop with one request in flight per connection for the highest rate
 * the service sustains.
 *
 * Gates: every 200 body equals the transport-free handle() answer for
 * the same request: hits and crowds against references computed before
 * the window, misses after it against an independent service that
 * computes them afresh.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "loadgen.hh"
#include "phases.hh"
#include "probes.hh"
#include "service/service.hh"
#include "sim/parallel.hh"
#include "store/result_cache.hh"

namespace perfbench
{

namespace
{

/** Reference rate at which latencies are reported, req/s. */
constexpr double kReferenceRps = 100.0;

constexpr int kConnections = 4;

/**
 * Closed-loop runs per step. Repeats of one schedule vary by up to
 * 1.4x in throughput on a shared 4-vCPU host, against under 1.1x for
 * the window's crowd p90, so throughput gets more samples.
 */
constexpr int kClosedLoopsPerStep = 2;

/**
 * Every step starts a fresh service (so every step sees the same cache
 * state) this many times and keeps the last. One start, mostly the
 * prefill, reads 0.06 s or 0.12 s depending on the vCPU it lands on,
 * so set-up takes several samples spread over the run.
 */
constexpr int kStartsPerStep = 3;

/** Requests per block of the schedule; the first is the crowd one. */
constexpr int kBlock = 20;

pvar::ServiceConfig
serviceConfig()
{
    pvar::ServiceConfig cfg;
    cfg.port = 0;
    cfg.workers = 2;
    cfg.study.jobs = 1;
    cfg.study.iterations = 1;
    cfg.study.solver = pvar::SolverKind::Fast;
    return cfg;
}

pvar::HttpRequest
toHttp(const PlannedRequest &r)
{
    pvar::HttpRequest req;
    req.method = r.method;
    req.path = r.path;
    req.version = "HTTP/1.1";
    req.body = r.body;
    return req;
}

std::vector<std::string>
calibratedUnits()
{
    std::vector<std::string> ids;
    for (const pvar::RegistryEntry &e :
         pvar::DeviceRegistry::builtin().entries()) {
        if (!e.inStudy)
            continue;
        for (const pvar::UnitCorner &u : e.units)
            ids.push_back(u.id);
    }
    return ids;
}

/**
 * Seeded request source: the schedule (class order, unit choice and
 * crowd populations, drawn once) and fresh miss ambients per replay.
 */
class Mix
{
  public:
    Mix(std::uint64_t seed, bool tiny)
        : _rng(seed ^ 0x7365727665ULL), _units(calibratedUnits()),
          _tiny(tiny)
    {
        // One block per crowd population: block b's crowd request uses
        // population b.
        int blocks = tiny ? 4 : 16;
        for (int i = 0; i < blocks; ++i)
            _crowdSeeds.push_back(static_cast<int>(_rng.below(1u << 30)));
        for (int b = 0; b < blocks; ++b) {
            int block[kBlock];
            block[0] = kCrowd;
            for (int i = 1; i < kBlock; ++i)
                block[i] = i <= 14 ? kHit : i <= 18 ? kMiss : kHealth;
            for (int i = kBlock - 1; i > 1; --i)
                std::swap(block[i], block[1 + _rng.below(i)]);
            for (int cls : block) {
                int unit = static_cast<int>(_rng.below(_units.size()));
                _schedule.push_back({cls, cls == kCrowd ? b : unit});
            }
        }
    }

    const std::vector<std::string> &units() const { return _units; }
    int crowdCount() const { return static_cast<int>(_crowdSeeds.size()); }

    PlannedRequest hit(const std::string &unit) const
    {
        return {kHit, "POST", "/study",
                "{\"device\": \"" + unit + "\"}"};
    }

    PlannedRequest crowd(int seed_index) const
    {
        return {kCrowd, "POST", "/crowd",
                "{\"dies\": " + std::string(_tiny ? "20000" : "100000") +
                    ", \"strata\": " + (_tiny ? "4" : "8") +
                    ", \"seed\": " +
                    std::to_string(_crowdSeeds[seed_index]) + "}"};
    }

    /** The schedule once more, with a fresh ambient for every miss. */
    std::vector<PlannedRequest> replay()
    {
        std::vector<PlannedRequest> out;
        out.reserve(_schedule.size());
        for (const Slot &slot : _schedule)
            out.push_back(make(slot));
        return out;
    }

  private:
    /** Class and argument: a unit index, or the crowd population's. */
    struct Slot
    {
        int cls;
        int arg;
    };

    SplitMix _rng;
    std::vector<std::string> _units;
    std::vector<int> _crowdSeeds;
    std::vector<Slot> _schedule;
    bool _tiny;

    PlannedRequest make(const Slot &slot)
    {
        switch (slot.cls) {
        case kHit:
            return hit(_units[slot.arg]);
        case kMiss: {
            char body[128];
            std::snprintf(body, sizeof body,
                          "{\"device\": \"%s\", \"ambient\": %.9f}",
                          _units[slot.arg].c_str(),
                          24.0 + 4.0 * _rng.uniform());
            return {kMiss, "POST", "/study", body};
        }
        case kCrowd:
            return crowd(slot.arg);
        default:
            return {kHealth, "GET", "/healthz", ""};
        }
    }
};

/** A running service with its prefilled hit set. */
struct Server
{
    std::unique_ptr<pvar::StudyService> svc;
    double setupS = 0.0;
};

Server
startServer(Mix &mix,
            std::map<std::string, std::string> &hit_ref, Report &rep)
{
    Server s;
    Clock::time_point t0 = Clock::now();
    s.svc = std::make_unique<pvar::StudyService>(serviceConfig());
    s.svc->start();
    for (const std::string &u : mix.units()) {
        PlannedRequest r = mix.hit(u);
        pvar::HttpResponse resp = s.svc->handle(toHttp(r));
        rep.gate(resp.status == 200, "serve: prefill of " + u + " failed");
        auto [it, fresh] = hit_ref.emplace(r.body, resp.body);
        if (!fresh)
            rep.gate(it->second == resp.body,
                     "serve: prefill bytes differ between services");
    }
    s.setupS = secondsSince(t0);
    return s;
}

/** Checks 200 bodies as they arrive; misses are checked afterwards. */
struct Checker
{
    const std::map<std::string, std::string> *hitRef = nullptr;
    const std::map<std::string, std::string> *crowdRef = nullptr;
    std::vector<std::pair<std::string, std::string>> misses;
    std::uint64_t mismatches = 0;
    bool corruptNext = false;

    void operator()(const PlannedRequest &req, const std::string &body)
    {
        std::string got = body;
        if (corruptNext && req.cls == kHit && !got.empty()) {
            got[got.size() / 2] ^= 0x01;
            corruptNext = false;
        }
        switch (req.cls) {
        case kHit:
            mismatches += hitRef->at(req.body) != got;
            break;
        case kCrowd:
            mismatches += crowdRef->at(req.body) != got;
            break;
        case kMiss:
            misses.emplace_back(req.body, got);
            break;
        default:
            mismatches += got.empty();
            break;
        }
    }
};

/** Service-side counters, snapshotted around a window. */
struct ServiceCounters
{
    pvar::ResultCacheStats cache;
    pvar::HttpLoopStats loop;
    pvar::ServiceStats service;
};

ServiceCounters
countersOf(const pvar::StudyService &svc)
{
    return {svc.cacheStats(), svc.loopStats(), svc.stats()};
}

/** Several windows at one rate, pooled into one result. */
RateResult
pooled(const std::vector<RateResult> &windows)
{
    RateResult all;
    for (const RateResult &w : windows) {
        all.rate = w.rate;
        for (int c = 0; c < kClassCount; ++c)
            all.latencyMs[c].insert(all.latencyMs[c].end(),
                                    w.latencyMs[c].begin(),
                                    w.latencyMs[c].end());
        all.sent += w.sent;
        all.ok += w.ok;
        all.shed += w.shed;
        all.failed += w.failed;
        all.lateMs.insert(all.lateMs.end(), w.lateMs.begin(),
                          w.lateMs.end());
        all.drainS = std::max(all.drainS, w.drainS);
        all.sampledMax = std::max(all.sampledMax, w.sampledMax);
    }
    return all;
}

/** One class's latency percentile in each window. */
std::vector<double>
perWindow(const std::vector<RateResult> &windows, int cls, double pct)
{
    std::vector<double> v;
    for (const RateResult &w : windows)
        v.push_back(percentile(w.latencyMs[cls], pct));
    return v;
}

/** Shared state of one serve run: service, references, request source. */
class ServeRun
{
  public:
    ServeRun(const Options &o, Report &rep)
        : _rep(rep), _mix(o.seed, o.tiny),
          _reference(serviceConfig()), _jobs(o.jobs)
    {
        _check.hitRef = &_hitRef;
        _check.crowdRef = &_crowdRef;
        _check.corruptNext = o.inject == Inject::ServedByte;
    }

    /** Start the service @p times (keeping the last); median set-up. */
    double start(int times)
    {
        std::vector<double> setup;
        for (int i = 0; i < times; ++i) {
            if (_server.svc)
                _server.svc->stop();
            _server = startServer(_mix, _hitRef, _rep);
            setup.push_back(_server.setupS);
        }
        if (!_crowdRef.empty())
            return median(setup);
        // Crowd references, one per population, on every core.
        std::vector<pvar::HttpResponse> refs(_mix.crowdCount());
        pvar::parallelFor(refs.size(), _jobs, [&](std::size_t i) {
            refs[i] = _reference.handle(toHttp(_mix.crowd(int(i))));
        });
        for (std::size_t i = 0; i < refs.size(); ++i) {
            _rep.gate(refs[i].status == 200, "serve: crowd reference failed");
            _crowdRef[_mix.crowd(int(i)).body] = refs[i].body;
        }
        return median(setup);
    }

    pvar::StudyService &svc() { return *_server.svc; }
    Mix &mix() { return _mix; }

    /** The schedule open-loop at the reference rate. */
    RateResult reference(const std::function<double()> &sampler = {})
    {
        RateConfig cfg;
        cfg.rate = kReferenceRps;
        cfg.sampler = sampler;
        return drive(cfg);
    }

    /** The schedule closed-loop. */
    RateResult closedLoop()
    {
        RateConfig cfg;
        cfg.closedLoop = true;
        return drive(cfg);
    }

    void finish()
    {
        _rep.gate(_check.mismatches == 0,
                  "serve: " + std::to_string(_check.mismatches) +
                      " served bodies differ from handle()");
        _server.svc->stop();
    }

  private:
    RateResult drive(RateConfig cfg)
    {
        cfg.port = _server.svc->port();
        cfg.connections = kConnections;
        RateResult r = runAtRate(
            cfg, _mix.replay(),
            [this](const PlannedRequest &q, const std::string &b) {
                _check(q, b);
            });
        verifyMisses();
        return r;
    }

    Report &_rep;
    Mix _mix;
    pvar::StudyService _reference;
    Server _server;
    std::map<std::string, std::string> _hitRef, _crowdRef;
    Checker _check;
    int _jobs;

    /**
     * Every miss of the window against the independent reference
     * service, which computes it afresh, on every core.
     */
    void verifyMisses()
    {
        std::vector<char> bad(_check.misses.size(), 0);
        pvar::parallelFor(_check.misses.size(), _jobs, [&](std::size_t i) {
            const auto &[body, got] = _check.misses[i];
            PlannedRequest q{kMiss, "POST", "/study", body};
            bad[i] = _reference.handle(toHttp(q)).body != got;
        });
        for (char b : bad)
            _check.mismatches += b;
        _check.misses.clear();
    }
};

double
pctOf(std::uint64_t part, std::uint64_t whole)
{
    return 100.0 * static_cast<double>(part) /
           static_cast<double>(std::max<std::uint64_t>(whole, 1));
}

/**
 * One step starts a fresh service, then runs a reference window and
 * kClosedLoopsPerStep closed-loop runs, all of the run's schedule. Each figure is the
 * median over the run: of the windows' crowd p90 and of the closed-loop
 * throughputs.
 */
class ServePhase : public Phase
{
  public:
    ServePhase(const Options &o, Report &rep) : _rep(rep), _run(o, rep) {}

    void step() override
    {
        _setup.push_back(_run.start(kStartsPerStep));
        _windows.push_back(_run.reference());
        for (int i = 0; i < kClosedLoopsPerStep; ++i) {
            RateResult cap = _run.closedLoop();
            _rep.gate(cap.ok == cap.sent,
                      "serve: closed-loop run had " +
                          std::to_string(cap.sent - cap.ok) +
                          " sheds or failures");
            _rps.push_back(static_cast<double>(cap.ok) / cap.elapsedS);
            _rep.countOps(cap.sent, cap.failed);
        }
    }

    void finish(std::vector<double> &setup_s) override
    {
        _run.finish();
        RateResult ref = pooled(_windows);
        std::vector<double> crowd_p90 = perWindow(_windows, kCrowd, 90);
        note("serve: %llu requests at %.0f req/s, %llu ok, %llu shed, "
             "%llu failed; %zu steps, crowd p90 %.1f ms, closed loop "
             "%.1f req/s (medians; ranges %.1f-%.1f, %.1f-%.1f)",
             static_cast<unsigned long long>(ref.sent), kReferenceRps,
             static_cast<unsigned long long>(ref.ok),
             static_cast<unsigned long long>(ref.shed),
             static_cast<unsigned long long>(ref.failed), _windows.size(),
             median(crowd_p90), median(_rps), minOf(crowd_p90),
             maxOf(crowd_p90), minOf(_rps), maxOf(_rps));

        // Hit and miss latencies (about 1 and 7 ms) move by 2-4x in
        // whole runs when the shared machine is busy, so they are
        // per-layer figures; the 100-ms crowd class holds steady enough
        // to bound.
        _rep.add("serve_crowd_p90_ms", median(crowd_p90), "ms");
        _rep.add("serve_max_rps", median(_rps), "req/s");
        _rep.add("serve_ok_pct", pctOf(ref.ok, ref.sent), "%");
        _rep.countOps(ref.sent, ref.failed);
        setup_s.push_back(median(_setup));
    }

  private:
    Report &_rep;
    ServeRun _run;
    std::vector<double> _setup;
    std::vector<RateResult> _windows;
    std::vector<double> _rps;
};

} // namespace

std::unique_ptr<Phase>
servePhase(const Options &o, Report &rep)
{
    return std::make_unique<ServePhase>(o, rep);
}

void
serveTraced(const Options &o, Report &rep)
{
    ServeRun run(o, rep);
    run.start(1);
    pvar::StudyService &svc = run.svc();

    // Untraced twin of the traced window, for the overhead.
    RateResult plain = run.reference();

    ServiceCounters before = countersOf(svc);
    RateResult traced = run.reference([&svc] {
        return static_cast<double>(svc.stats().queued);
    });
    ServiceCounters after = countersOf(svc);
    rep.countOps(plain.sent + traced.sent, plain.failed + traced.failed);
    const pvar::ResultCacheStats &c0 = before.cache, &c1 = after.cache;
    const pvar::HttpLoopStats &l0 = before.loop, &l1 = after.loop;
    const pvar::ServiceStats &s0 = before.service, &s1 = after.service;

    // Transport-free handle() on hit bodies.
    std::vector<double> hit_us;
    const std::vector<std::string> &units = run.mix().units();
    for (int i = 0; i < (o.tiny ? 20 : 400); ++i) {
        pvar::HttpRequest req =
            toHttp(run.mix().hit(units[i % units.size()]));
        Clock::time_point t0 = Clock::now();
        pvar::HttpResponse resp = svc.handle(req);
        hit_us.push_back(secondsSince(t0) * 1e6);
        rep.gate(resp.status == 200, "serve traced: hit handle() failed");
    }
    run.finish();

    // Computed experiments of the miss configuration, timed through a
    // probe over a private cache: the service's own study settings.
    pvar::ServiceConfig scfg = serviceConfig();
    pvar::ResultCache cache;
    ProbedCache probe(cache);
    pvar::StudyConfig study = scfg.study;
    study.cache = &probe;
    study.batch = 1; // unbatched, so each compute is timed on its own
    SplitMix pick(o.seed ^ 0x6d697373ULL);
    for (int i = 0; i < (o.tiny ? 1 : 8); ++i) {
        pvar::UnitRef ref = pvar::DeviceRegistry::builtin().findUnit(
            units[pick.below(units.size())]);
        double ambient = 24.0 + 4.0 * pick.uniform();
        study.thermabox.target = pvar::Celsius(ambient);
        study.accubench.cooldownTarget = pvar::Celsius(ambient + 6.0);
        pvar::runUnitStudy(*ref.entry, ref.unitIndex, study);
    }
    CacheProbeStats ps = probe.stats();

    std::uint64_t lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
    rep.add("accubench.experiments.serve",
            static_cast<double>(c1.misses - c0.misses), "count");
    rep.add("accubench.experiment_ms_p50.serve", median(ps.computeMs),
            "ms");
    rep.add("accubench.experiment_ms_max.serve", maxOf(ps.computeMs), "ms");
    rep.add("sim.trace_samples_per_experiment.serve",
            static_cast<double>(ps.traceSamples) /
                static_cast<double>(std::max<std::uint64_t>(ps.results, 1)),
            "count");
    rep.add("service.hit_p50_ms", median(traced.latencyMs[kHit]), "ms");
    rep.add("service.hit_p99_ms", percentile(traced.latencyMs[kHit], 99),
            "ms");
    rep.add("service.miss_p50_ms", median(traced.latencyMs[kMiss]), "ms");
    rep.add("service.miss_p99_ms", percentile(traced.latencyMs[kMiss], 99),
            "ms");
    rep.add("service.handle_hit_us", median(hit_us), "us");
    rep.add("service.cache_hit_ratio",
            static_cast<double>(c1.hits - c0.hits) /
                static_cast<double>(std::max<std::uint64_t>(lookups, 1)),
            "ratio");
    rep.add("service.keepalive_reuse_ratio",
            static_cast<double>(l1.keepAliveReuses - l0.keepAliveReuses) /
                static_cast<double>(
                    std::max<std::uint64_t>(s1.served - s0.served, 1)),
            "ratio");
    rep.add("service.queue_depth_max", traced.sampledMax, "count");
    rep.add("service.shed", static_cast<double>(traced.shed), "count");
    rep.add("service.generator_late_ms", percentile(traced.lateMs, 99),
            "ms");
    double plain_p50 = median(plain.latencyMs[kHit]);
    rep.add("bench.trace_overhead_pct.serve",
            100.0 * (median(traced.latencyMs[kHit]) - plain_p50) / plain_p50,
            "%");
}

} // namespace perfbench
