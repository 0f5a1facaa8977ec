/**
 * @file
 * Shared plumbing of the repo benchmark: options, clocks, the metric
 * sink, correctness gates and small statistics helpers.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Deliberate faults the self-test seeds to prove the gates bite. */
enum class Inject
{
    None,
    ServedByte,    ///< flip one byte of one served 200 body
    StoreRecord,   ///< drop the last record of each store before reopen
    FastDeviation, ///< push one fast-solver score 2% off the stepped one
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Run only this phase (fleet, crowd or serve); empty = all. */
    std::string only;
    /** Minimal sizes, for the self-test. */
    bool tiny = false;
    Inject inject = Inject::None;
    /** Worker threads for fleet and crowd studies (nproc). */
    int jobs = 1;
    /** Scratch directory for stores; created and emptied by the run. */
    std::string workdir;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU time (user + system), seconds. */
double cpuSeconds();

/** Peak resident set size of this process, MB. */
double peakRssMb();

double median(std::vector<double> v);

/** Nearest-rank percentile, p in [0, 100]; 0 when empty. */
double percentile(std::vector<double> v, double p);

double minOf(const std::vector<double> &v);
double maxOf(const std::vector<double> &v);

/** SplitMix64: the benchmark's own seeded input generator. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : _s(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t _s;
};

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Collects metrics and gate verdicts for the final JSON line. Every
 * gate failure is also printed to stderr as it happens.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Record a correctness check; false fails the whole run. */
    void gate(bool ok, const std::string &what);

    /** Operations the run required to succeed, and those that failed. */
    void countOps(std::uint64_t attempted, std::uint64_t failed);

    bool correct() const { return _failures.empty(); }

    /** The one-line result object. */
    std::string json() const;

  private:
    std::vector<Metric> _metrics;
    std::vector<std::string> _failures;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** Remove @p dir recursively (if present) and create it empty. */
void freshDir(const std::string &dir);

/** Size of a file in bytes; 0 when missing. */
std::uint64_t fileBytes(const std::string &path);

/**
 * Drop the last record of a record log by cutting its final byte: the
 * store's torn-tail recovery then discards that record at open.
 */
void dropLastRecord(const std::string &log_path);

/** Progress line on stderr. */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
