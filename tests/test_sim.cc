/** @file Unit tests for src/sim: clock domains and queue primitives. */

#include <gtest/gtest.h>

#include "sim/clock.hh"
#include "sim/queue.hh"

using namespace bwsim;

TEST(Clock, DomainRatios)
{
    MultiClock mc;
    int core_ticks = 0, icnt_ticks = 0;
    mc.addDomain("core", 1400.0, [&] { ++core_ticks; });
    mc.addDomain("icnt", 700.0, [&] { ++icnt_ticks; });
    // Advance enough steps for 1400 core cycles.
    while (core_ticks < 1400)
        mc.step();
    // 700 MHz runs at exactly half the rate of 1400 MHz.
    EXPECT_NEAR(icnt_ticks, 700, 1);
}

TEST(Clock, ThreeDomainRates)
{
    MultiClock mc;
    std::uint64_t n_core = 0, n_icnt = 0, n_dram = 0;
    mc.addDomain("dram", 924.0, [&] { ++n_dram; });
    mc.addDomain("icnt", 700.0, [&] { ++n_icnt; });
    mc.addDomain("core", 1400.0, [&] { ++n_core; });
    for (int i = 0; i < 100000; ++i)
        mc.step();
    double t = mc.nowPs();
    EXPECT_NEAR(double(n_core) / (t * 1400e-6), 1.0, 0.01);
    EXPECT_NEAR(double(n_icnt) / (t * 700e-6), 1.0, 0.01);
    EXPECT_NEAR(double(n_dram) / (t * 924e-6), 1.0, 0.01);
}

TEST(Clock, IntraInstantOrder)
{
    // Domains due at the same instant tick in registration order.
    MultiClock mc;
    std::vector<int> order;
    mc.addDomain("first", 1000.0, [&] { order.push_back(1); });
    mc.addDomain("second", 1000.0, [&] { order.push_back(2); });
    mc.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(BoundedQueue, CapacityAndOrder)
{
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(3));
    EXPECT_EQ(q.free(), 0u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, WrapsAroundItsRing)
{
    // Capacity 3 sits on a 4-slot ring: rounds of fill-and-drain wrap
    // the head past the end of the storage and must keep FIFO order
    // and the bound.
    BoundedQueue<int> q(3);
    int in = 0, out = 0;
    for (int round = 0; round < 20; ++round) {
        while (q.push(in))
            ++in;
        EXPECT_EQ(q.size(), 3u);
        EXPECT_EQ(q.front(), out);
        EXPECT_EQ(q.pop(), out++);
        if (round % 3 == 0) {
            EXPECT_EQ(q.pop(), out++);
        }
    }
}

TEST(TimedQueue, ReadyGating)
{
    TimedQueue<int> q(4);
    EXPECT_TRUE(q.push(1, 10));
    EXPECT_FALSE(q.ready(9));
    EXPECT_TRUE(q.ready(10));
    EXPECT_EQ(q.pop(), 1);
}

TEST(TimedQueue, MonotoneClamp)
{
    // FIFO order dominates: a later push with an earlier deadline is
    // clamped to its predecessor's deadline.
    TimedQueue<int> q(4);
    q.push(1, 100);
    q.push(2, 50);
    EXPECT_FALSE(q.ready(60));
    EXPECT_TRUE(q.ready(100));
    q.pop();
    EXPECT_TRUE(q.ready(100)); // second entry clamped to 100
}

TEST(TimedQueue, CapacityEnforced)
{
    TimedQueue<int> q(1);
    EXPECT_TRUE(q.push(1, 0));
    EXPECT_FALSE(q.push(2, 0));
    EXPECT_TRUE(q.full());
}

TEST(DelayPipe, FifoWithDelays)
{
    DelayPipe<int> p;
    p.push(1, 5);
    p.push(2, 6);
    EXPECT_FALSE(p.ready(4));
    EXPECT_TRUE(p.ready(5));
    EXPECT_EQ(p.pop(), 1);
    EXPECT_FALSE(p.ready(5));
    EXPECT_TRUE(p.ready(6));
    EXPECT_EQ(p.pop(), 2);
    EXPECT_TRUE(p.empty());
}

TEST(DelayPipe, GrowsAcrossAWrappedRing)
{
    // Two pushes per pop: the ring doubles several times, each time
    // with its head wrapped, and must hand entries back in order.
    DelayPipe<int> p;
    int in = 0, out = 0;
    for (int i = 0; i < 100; ++i) {
        p.push(in++, i);
        p.push(in++, i);
        ASSERT_TRUE(p.ready(i));
        EXPECT_EQ(p.pop(), out++);
    }
    EXPECT_EQ(p.size(), 100u);
    while (!p.empty())
        EXPECT_EQ(p.pop(), out++);
    EXPECT_EQ(out, in);
}
