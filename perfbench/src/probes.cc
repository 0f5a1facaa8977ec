#include "probes.hh"

namespace perfbench
{

double
simulatedSeconds(const pvar::ExperimentResult &r)
{
    double s = 0.0;
    for (const pvar::IterationResult &it : r.iterations)
        s += it.warmupTime.toSec() + it.cooldownTime.toSec() +
             it.workloadTime.toSec();
    return s;
}

std::uint64_t
traceSamples(const pvar::ExperimentResult &r)
{
    std::uint64_t n = 0;
    for (const std::string &name : r.trace.channelNames())
        n += r.trace.channel(name).size();
    return n;
}

void
ProbedCache::noteResult(const pvar::ExperimentResult &r)
{
    std::uint64_t samples = traceSamples(r);
    std::lock_guard<std::mutex> lock(_mutex);
    _stats.traceSamples += samples;
    ++_stats.results;
}

pvar::ExperimentResult
ProbedCache::getOrCompute(
    const pvar::RegistryEntry &entry, std::size_t unit_index,
    const pvar::ExperimentConfig &cfg,
    const std::function<pvar::ExperimentResult()> &compute)
{
    Clock::time_point t0 = Clock::now();
    Clock::time_point c0 = t0, c1 = t0;
    bool computed = false;
    double sim_s = 0.0;
    auto timed = [&]() {
        c0 = Clock::now();
        pvar::ExperimentResult r = compute();
        c1 = Clock::now();
        computed = true;
        sim_s = simulatedSeconds(r);
        return r;
    };
    pvar::ExperimentResult r =
        _inner.getOrCompute(entry, unit_index, cfg, timed);
    Clock::time_point t1 = Clock::now();
    noteResult(r);

    using Sec = std::chrono::duration<double>;
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.gets;
    if (computed) {
        _stats.computeMs.push_back(Sec(c1 - c0).count() * 1e3);
        _stats.computeSimS += sim_s;
        _stats.getS += Sec(c0 - t0).count();
        ++_stats.puts;
        _stats.putS += Sec(t1 - c1).count();
    } else {
        ++_stats.hits;
        _stats.getS += Sec(t1 - t0).count();
    }
    return r;
}

bool
ProbedCache::lookup(const pvar::RegistryEntry &entry,
                    std::size_t unit_index,
                    const pvar::ExperimentConfig &cfg,
                    pvar::ExperimentResult &out)
{
    Clock::time_point t0 = Clock::now();
    bool hit = _inner.lookup(entry, unit_index, cfg, out);
    double s = secondsSince(t0);
    if (hit)
        noteResult(out);
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.gets;
    _stats.hits += hit ? 1 : 0;
    _stats.getS += s;
    return hit;
}

void
ProbedCache::insert(const pvar::RegistryEntry &entry,
                    std::size_t unit_index,
                    const pvar::ExperimentConfig &cfg,
                    const pvar::ExperimentResult &result)
{
    Clock::time_point t0 = Clock::now();
    _inner.insert(entry, unit_index, cfg, result);
    double s = secondsSince(t0);
    noteResult(result);
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.puts;
    _stats.putS += s;
}

void
ProbedCache::flushPending()
{
    Clock::time_point t0 = Clock::now();
    _inner.flushPending();
    double s = secondsSince(t0);
    std::lock_guard<std::mutex> lock(_mutex);
    _stats.putS += s;
}

CacheProbeStats
ProbedCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

bool
ProbedLivePoints::fetch(const std::string &key_text, std::string &out)
{
    Clock::time_point t0 = Clock::now();
    bool hit = _inner.fetch(key_text, out);
    double s = secondsSince(t0);
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.fetches;
    _stats.fetchHits += hit ? 1 : 0;
    _stats.fetchS += s;
    return hit;
}

void
ProbedLivePoints::store(const std::string &key_text,
                        const std::string &value)
{
    Clock::time_point t0 = Clock::now();
    _inner.store(key_text, value);
    double s = secondsSince(t0);
    std::lock_guard<std::mutex> lock(_mutex);
    ++_stats.stores;
    _stats.storeS += s;
}

LivePointProbeStats
ProbedLivePoints::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace perfbench
