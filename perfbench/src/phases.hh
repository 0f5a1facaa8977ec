/**
 * @file
 * The benchmark's three phases. Every run executes all three, so every
 * metric is printed on every workload; the workload names the phase
 * that gets the largest share of the measured window (see
 * perfbench/DESIGN.md).
 *
 * An untraced phase is a sequence of steps (one repetition each) that
 * main.cc interleaves with the other phases' steps, so a slow spell of
 * the shared machine lands on a few samples of every metric rather
 * than on all samples of one. finish() then adds the phase's end-to-end
 * metrics, each the median of its samples over the steps, and appends
 * the median of its set-up times (store creation, service start +
 * prefill) to @p setup_s; the run reports their sum.
 *
 * Traced phases run on their own and add per-layer metrics.
 */

#ifndef PERFBENCH_PHASES_HH
#define PERFBENCH_PHASES_HH

#include <memory>
#include <vector>

#include "util.hh"

namespace perfbench
{

/** One untraced phase: repeated steps, then its metrics. */
class Phase
{
  public:
    virtual ~Phase() = default;

    /** One repetition; records its samples and gates. */
    virtual void step() = 0;

    /** Add the phase's metrics; append its median set-up time. */
    virtual void finish(std::vector<double> &setup_s) = 0;
};

std::unique_ptr<Phase> fleetPhase(const Options &o, Report &rep);
std::unique_ptr<Phase> crowdPhase(const Options &o, Report &rep);
/** Starts the service (its set-up) before returning. */
std::unique_ptr<Phase> servePhase(const Options &o, Report &rep);

void fleetTraced(const Options &o, Report &rep);
void crowdTraced(const Options &o, Report &rep);
void serveTraced(const Options &o, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HH
