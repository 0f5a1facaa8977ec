/**
 * @file
 * Fixed-step co-simulation driver.
 */

#ifndef PVAR_SIM_SIMULATOR_HH
#define PVAR_SIM_SIMULATOR_HH

#include <functional>
#include <vector>

#include "sim/tickable.hh"
#include "sim/time.hh"

namespace pvar
{

/**
 * Owns the simulation clock and drives registered components.
 *
 * The loop advances in fixed steps of `dt`. Components are *not* owned
 * by the simulator — the experiment object that assembles a device
 * graph keeps ownership and must outlive the run.
 */
class Simulator
{
  public:
    /** @param dt fixed step length (default 10 ms). */
    explicit Simulator(Time dt = Time::msec(10));

    /** Register a component; order defines per-step evaluation order. */
    void add(Tickable *component);

    /** Current simulation time. */
    Time now() const { return _now; }

    /** Fixed step length. */
    Time dt() const { return _dt; }

    /**
     * Event-driven mode: instead of fixed `dt` ticks, each step jumps
     * to the nearest component boundary (never less than one `dt`, so
     * the mode degenerates to fixed stepping when a component demands
     * it). Components see the same tick() interface with a variable
     * dt. Off by default.
     */
    void setEventDriven(bool on) { _eventDriven = on; }

    bool eventDriven() const { return _eventDriven; }

    /** Advance by exactly one step. */
    void step();

    /** Advance until the clock reaches (at least) `deadline`. */
    void runUntil(Time deadline);

    /** Advance by `span`. */
    void runFor(Time span);

    /**
     * Advance until `pred` returns true (checked after every step) or
     * `deadline` passes.
     *
     * @return true if the predicate fired, false on deadline.
     */
    bool runUntilCondition(const std::function<bool()> &pred, Time deadline);

    /**
     * Move the clock to @p now without ticking anything: the restore
     * half of a live-point checkpoint, whose components carry their
     * own saved state.
     */
    void restoreClock(Time now) { _now = now; }

    /** Total steps executed (diagnostics). */
    std::uint64_t stepsExecuted() const { return _steps; }

  private:
    Time _dt;
    Time _now;
    std::uint64_t _steps;
    bool _eventDriven = false;
    std::vector<Tickable *> _components;

    void advanceOnce(Time limit);
};

} // namespace pvar

#endif // PVAR_SIM_SIMULATOR_HH
