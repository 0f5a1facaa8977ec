/**
 * @file
 * Open-loop HTTP load generator for the serve workload.
 *
 * One thread drives a fixed pool of keep-alive connections with
 * non-blocking sockets. Requests are due on a fixed arrival clock
 * (request i at start + i / rate) whatever the service is doing; each
 * is pipelined onto the connection with the fewest outstanding
 * requests, and its latency runs from the time it was due to the
 * arrival of its last response byte. A stall therefore shows in the
 * latency of every request due during it, and the generator's own
 * lateness (send time minus due time) is reported so a run where the
 * generator, not the service, fell behind can be recognised.
 *
 * In closed-loop mode each connection carries one request at a time:
 * the next request of the plan is due as soon as a connection is free,
 * so the run measures how fast the service drains a fixed plan.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/** Request classes of the serve mix. */
enum RequestClass
{
    kHit = 0,
    kMiss = 1,
    kCrowd = 2,
    kHealth = 3,
    kClassCount = 4,
};

/** One request of a schedule. */
struct PlannedRequest
{
    int cls = kHit;
    std::string method; ///< "GET" or "POST"
    std::string path;
    std::string body;
};

/** A finished 2xx response, handed to the caller's checker. */
using ResponseCheck =
    std::function<void(const PlannedRequest &req, const std::string &body)>;

/** Outcome of one fixed-rate window. */
struct RateResult
{
    double rate = 0.0;
    /** Latency per class, ms from due time to response. */
    std::vector<double> latencyMs[kClassCount];
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;       ///< 2xx
    std::uint64_t shed = 0;     ///< 429 / 503 backpressure answers
    std::uint64_t failed = 0;   ///< transport errors, other statuses
    /** Generator lateness, ms, one sample per request. */
    std::vector<double> lateMs;
    /** Time from the last due send until the last response, s. */
    double drainS = 0.0;
    /** Largest value the sampler returned during the window. */
    double sampledMax = 0.0;
    /** Time from the first send until the last response, s. */
    double elapsedS = 0.0;
};

struct RateConfig
{
    int port = 0;
    int connections = 4;
    /** Arrival rate, req/s; ignored in closed-loop mode. */
    double rate = 100.0;
    /** One request in flight per connection, sent when it is free. */
    bool closedLoop = false;
    /**
     * Optional probe polled on every loop turn (e.g. the service's
     * queue depth); its largest value lands in RateResult::sampledMax.
     */
    std::function<double()> sampler;
};

/**
 * Send every request of @p plan, in order, at cfg.rate and collect
 * their outcomes. @p check sees every 2xx body.
 */
RateResult runAtRate(const RateConfig &cfg,
                     const std::vector<PlannedRequest> &plan,
                     const ResponseCheck &check);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
