/**
 * @file
 * Outside-in layer probes for the traced run.
 *
 * ExperimentCache and LivePointCache are public virtual interfaces, so
 * a pass-through wrapper sitting between the scheduler and the real
 * cache sees every experiment and every store call without any change
 * to the library. A computed experiment is timed around the compute
 * callback the scheduler hands to getOrCompute(); the rest of the call
 * is store time (the lookup before it, the write-through after it).
 *
 * The wrappers forward every call unchanged, so results are the bytes
 * the unwrapped run produces; the benchmark checks that they are.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "accubench/experiment.hh"
#include "accubench/protocol.hh"
#include "util.hh"

namespace perfbench
{

/** Simulated seconds of warmup + cooldown + workload in a result. */
double simulatedSeconds(const pvar::ExperimentResult &r);

/** Samples recorded across every trace channel of a result. */
std::uint64_t traceSamples(const pvar::ExperimentResult &r);

/** What the experiment-cache probe saw during one pass. */
struct CacheProbeStats
{
    std::vector<double> computeMs;  ///< per computed experiment
    double computeSimS = 0.0;       ///< simulated s of computed ones
    std::uint64_t traceSamples = 0; ///< over every result returned
    std::uint64_t results = 0;      ///< results returned (hit or not)
    std::uint64_t gets = 0;         ///< lookups (hit or miss)
    std::uint64_t hits = 0;
    double getS = 0.0;              ///< time in lookups
    std::uint64_t puts = 0;
    double putS = 0.0;              ///< time in write-through + flush
};

class ProbedCache : public pvar::ExperimentCache
{
  public:
    explicit ProbedCache(pvar::ExperimentCache &inner) : _inner(inner) {}

    pvar::ExperimentResult getOrCompute(
        const pvar::RegistryEntry &entry, std::size_t unit_index,
        const pvar::ExperimentConfig &cfg,
        const std::function<pvar::ExperimentResult()> &compute) override;

    bool lookup(const pvar::RegistryEntry &entry, std::size_t unit_index,
                const pvar::ExperimentConfig &cfg,
                pvar::ExperimentResult &out) override;

    void insert(const pvar::RegistryEntry &entry, std::size_t unit_index,
                const pvar::ExperimentConfig &cfg,
                const pvar::ExperimentResult &result) override;

    void flushPending() override;

    CacheProbeStats stats() const;

  private:
    pvar::ExperimentCache &_inner;
    mutable std::mutex _mutex;
    CacheProbeStats _stats;

    void noteResult(const pvar::ExperimentResult &r);
};

/** What the live-point probe saw during one pass. */
struct LivePointProbeStats
{
    std::uint64_t fetches = 0;
    std::uint64_t fetchHits = 0;
    double fetchS = 0.0;
    std::uint64_t stores = 0;
    double storeS = 0.0;
};

class ProbedLivePoints : public pvar::LivePointCache
{
  public:
    explicit ProbedLivePoints(pvar::LivePointCache &inner) : _inner(inner)
    {
    }

    bool fetch(const std::string &key_text, std::string &out) override;
    void store(const std::string &key_text,
               const std::string &value) override;

    LivePointProbeStats stats() const;

  private:
    pvar::LivePointCache &_inner;
    mutable std::mutex _mutex;
    LivePointProbeStats _stats;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
