/**
 * @file
 * Unit tests for the fixed-step co-simulation driver.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace pvar
{
namespace
{

/** Counts ticks and records the last (now, dt) seen. */
class Counter : public Tickable
{
  public:
    int ticks = 0;
    Time lastNow;
    Time lastDt;

    void
    tick(Time now, Time dt) override
    {
        ++ticks;
        lastNow = now;
        lastDt = dt;
    }

    std::string name() const override { return "counter"; }
};

TEST(Simulator, StepAdvancesClock)
{
    Simulator sim(Time::msec(10));
    EXPECT_EQ(sim.now(), Time::zero());
    sim.step();
    EXPECT_EQ(sim.now(), Time::msec(10));
    EXPECT_EQ(sim.stepsExecuted(), 1u);
}

TEST(Simulator, ComponentsTickEveryStep)
{
    Simulator sim(Time::msec(10));
    Counter c;
    sim.add(&c);
    sim.runFor(Time::msec(100));
    EXPECT_EQ(c.ticks, 10);
    EXPECT_EQ(c.lastNow, Time::msec(100));
    EXPECT_EQ(c.lastDt, Time::msec(10));
}

TEST(Simulator, EvaluationOrderIsRegistrationOrder)
{
    Simulator sim(Time::msec(10));
    std::vector<int> order;

    class Probe : public Tickable
    {
      public:
        Probe(std::vector<int> *ord, int label) : _ord(ord), _label(label)
        {
        }
        void tick(Time, Time) override { _ord->push_back(_label); }
        std::string name() const override { return "probe"; }

      private:
        std::vector<int> *_ord;
        int _label;
    };

    Probe a(&order, 1), b(&order, 2), c(&order, 3);
    sim.add(&a);
    sim.add(&b);
    sim.add(&c);
    sim.step();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilExactDeadline)
{
    Simulator sim(Time::msec(10));
    sim.runUntil(Time::msec(55));
    // Steps past the deadline in whole steps: 6 steps -> 60 ms.
    EXPECT_EQ(sim.now(), Time::msec(60));
}

TEST(Simulator, RunUntilCondition)
{
    Simulator sim(Time::msec(10));
    Counter c;
    sim.add(&c);
    bool hit = sim.runUntilCondition([&] { return c.ticks >= 7; },
                                     Time::sec(10));
    EXPECT_TRUE(hit);
    EXPECT_EQ(c.ticks, 7);
}

TEST(Simulator, RunUntilConditionDeadline)
{
    Simulator sim(Time::msec(10));
    bool hit = sim.runUntilCondition([] { return false; }, Time::msec(50));
    EXPECT_FALSE(hit);
    EXPECT_EQ(sim.now(), Time::msec(50));
}

} // namespace
} // namespace pvar
