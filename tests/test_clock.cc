/**
 * @file
 * MultiClock unit tests (intra-instant ordering, earliest-edge-first
 * interleaving) and the two Gpu schedulers: lockstep equivalence,
 * per-SM sleep on a latency-bound run, and the Gpu::run() cap clamp.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "gpu/gpu.hh"
#include "sim/clock.hh"
#include "sim/sim_speed.hh"

using namespace bwsim;

namespace
{

/** Restores the process-global scheduler mode on scope exit. */
struct ModeGuard
{
    SchedulerMode saved = schedulerMode();
    ~ModeGuard() { setSchedulerMode(saved); }
};

GpuConfig
quickConfig(GpuConfig c = GpuConfig::baseline())
{
    c.maxCoreCycles = 400000;
    return c;
}

std::string
statsDump(Gpu &gpu)
{
    std::ostringstream os;
    gpu.dumpStats(os);
    return os.str();
}

} // namespace

TEST(MultiClock, CoincidentEdgesTickInRegistrationOrder)
{
    // Same frequency: every instant is coincident, so the tick order
    // at each instant must be the registration order (drains first).
    MultiClock mc;
    std::vector<int> order;
    mc.addDomain("drain", 1000.0, [&order] { order.push_back(0); });
    mc.addDomain("producer", 1000.0, [&order] { order.push_back(1); });
    mc.step();
    mc.step();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 0);
    EXPECT_EQ(order[3], 1);
}

TEST(MultiClock, EarliestEdgeFirstAcrossRates)
{
    // 1000 MHz (1000 ps) vs 400 MHz (2500 ps). Both domains have their
    // first edge at t=0 (one step, two ticks, registration order);
    // after that the instants interleave earliest-first:
    // 1000, 2000, 2500 ...
    MultiClock mc;
    std::vector<std::pair<int, double>> ticks;
    std::size_t fast = mc.addDomain("fast", 1000.0, [&] {
        ticks.push_back({0, mc.nowPs()});
    });
    std::size_t slow = mc.addDomain("slow", 400.0, [&] {
        ticks.push_back({1, mc.nowPs()});
    });
    for (int i = 0; i < 4; ++i)
        mc.step();
    ASSERT_EQ(ticks.size(), 5u);
    EXPECT_EQ(ticks[0].first, 0);
    EXPECT_DOUBLE_EQ(ticks[0].second, 0.0);
    EXPECT_EQ(ticks[1].first, 1);
    EXPECT_DOUBLE_EQ(ticks[1].second, 0.0);
    EXPECT_EQ(ticks[2].first, 0);
    EXPECT_DOUBLE_EQ(ticks[2].second, 1000.0);
    EXPECT_EQ(ticks[3].first, 0);
    EXPECT_DOUBLE_EQ(ticks[3].second, 2000.0);
    EXPECT_EQ(ticks[4].first, 1);
    EXPECT_DOUBLE_EQ(ticks[4].second, 2500.0);
    EXPECT_EQ(mc.domain(fast).cycle(), 3u);
    EXPECT_EQ(mc.domain(slow).cycle(), 2u);
}

TEST(GpuScheduler, SkipAndLockstepAreBitIdentical)
{
    ModeGuard guard;
    BenchmarkProfile p = makeTestProfile("tiny-mixed");

    setSchedulerMode(SchedulerMode::Lockstep);
    Gpu a(quickConfig(), p);
    SimResult ra = a.run();

    setSchedulerMode(SchedulerMode::Skip);
    Gpu b(quickConfig(), p);
    SimResult rb = b.run();

    EXPECT_EQ(ra.coreCycles, rb.coreCycles);
    EXPECT_DOUBLE_EQ(ra.elapsedPs, rb.elapsedPs);
    EXPECT_EQ(ra.warpInstsIssued, rb.warpInstsIssued);
    EXPECT_EQ(statsDump(a), statsDump(b)); // every counter, verbatim
}

TEST(GpuScheduler, LatencyBoundProfileSleepsItsSMs)
{
    ModeGuard guard;
    setSchedulerMode(SchedulerMode::Skip);
    const SimSpeedTotals before = simSpeedTotals();
    Gpu gpu(quickConfig(), makeTestProfile("tiny-latency"));
    SimResult r = gpu.run();
    const SimSpeedTotals after = simSpeedTotals();
    EXPECT_FALSE(r.timedOut);
    // One warp's dependent-miss chain leaves 14 SMs idle throughout
    // and the fifteenth idle for most of each round trip: more than
    // half of all SM ticks must be slept rather than run.
    const std::uint64_t slept =
        after.sleptCoreCycles - before.sleptCoreCycles;
    EXPECT_GT(slept, 15 * r.coreCycles / 2);
}

TEST(GpuScheduler, CycleCapIsExactUnderBothSchedulers)
{
    // Regression: the 64-cycle burst in Gpu::run() used to overshoot
    // cfg.maxCoreCycles to the next multiple of 64. The cap must be
    // hit exactly, even when it is not burst-aligned.
    ModeGuard guard;
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCoreCycles = 1000; // 15 * 64 + 40: overshoot would give 1024
    BenchmarkProfile p = makeTestProfile("tiny-mixed");

    for (SchedulerMode mode :
         {SchedulerMode::Lockstep, SchedulerMode::Skip}) {
        setSchedulerMode(mode);
        Gpu gpu(cfg, p);
        SimResult r = gpu.run();
        EXPECT_TRUE(r.timedOut) << schedulerModeName(mode);
        EXPECT_EQ(r.coreCycles, 1000u) << schedulerModeName(mode);
        EXPECT_EQ(gpu.coreCycles(), 1000u) << schedulerModeName(mode);
    }
}
