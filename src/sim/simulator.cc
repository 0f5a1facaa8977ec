#include "sim/simulator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pvar
{

Simulator::Simulator(Time dt) : _dt(dt), _now(Time::zero()), _steps(0)
{
    if (dt <= Time::zero())
        fatal("Simulator step must be positive, got %s",
              dt.toString().c_str());
}

void
Simulator::add(Tickable *component)
{
    _components.push_back(component);
}

void
Simulator::advanceOnce(Time limit)
{
    // The jump target: nearest component boundary, clamped to the
    // caller's deadline — but never less than one base step, which
    // reproduces the fixed-step loop's overshoot when a deadline is not
    // dt-aligned and keeps pinned components exact.
    Time target = _now + _dt;
    if (_eventDriven) {
        Time candidate = Time::max();
        for (auto *c : _components)
            candidate = std::min(candidate, c->nextBoundary(_now, _dt));
        candidate = std::min(candidate, limit);
        target = std::max(target, candidate);
    }
    Time dt = target - _now;
    _now = target;
    ++_steps;
    for (auto *c : _components)
        c->tick(_now, dt);
}

void
Simulator::step()
{
    // A bare step is always one base dt, in either mode: callers that
    // single-step want the fixed cadence they asked for.
    advanceOnce(_now + _dt);
}

void
Simulator::runUntil(Time deadline)
{
    while (_now < deadline)
        advanceOnce(deadline);
}

void
Simulator::runFor(Time span)
{
    runUntil(_now + span);
}

bool
Simulator::runUntilCondition(const std::function<bool()> &pred, Time deadline)
{
    while (_now < deadline) {
        advanceOnce(deadline);
        if (pred())
            return true;
    }
    return pred();
}

} // namespace pvar
