/**
 * @file
 * Seeded lockstep-vs-skip differential: per-SM, per-L2-bank and
 * per-DRAM-channel sleep (and the domain-level skip they ride on)
 * must be invisible on inputs nobody hand-picked. Each seed draws a
 * hierarchy preset, for half the seeds a shrunk memory-side shape
 * (tiny DRAM, L2 and network queues, other bank and partition
 * counts), and a workload -- a pointer-chase or stride probe with
 * random parameters, a shrunk suite profile, or a small CTA-tagged
 * trace with stores -- runs it under both schedulers and requires
 * byte-identical --dump-stats trees and a fully drained packet
 * allocator.
 *
 * The short budget runs in the quick suite. The long budget is a
 * disabled test for the nightly job:
 *
 *   test_sleep_equiv --gtest_also_run_disabled_tests \
 *       --gtest_filter='SleepEquiv.*'
 *
 * A failing case names its seed, preset and workload; checkSeed(seed)
 * replays exactly that case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/dse.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/profile.hh"
#include "workloads/workload_spec.hh"

using namespace bwsim;

namespace
{

struct ScopedSchedulerMode
{
    explicit ScopedSchedulerMode(SchedulerMode m)
        : saved(schedulerMode())
    {
        setSchedulerMode(m);
    }
    ~ScopedSchedulerMode() { setSchedulerMode(saved); }
    SchedulerMode saved;
};

struct Case
{
    GpuConfig config;
    WorkloadSpec workload;
    std::string describe;
};

/** A small CTA-tagged trace: ~30% stores over a random footprint. */
WorkloadSpec
randomTrace(Rng &rng, std::string &describe)
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "sleep-equiv";
    t->ctaTagged = true;
    const int ctas = 1 + static_cast<int>(rng.below(12));
    const int records = 40 + static_cast<int>(rng.below(400));
    const std::uint64_t lines = 8 + rng.below(4096);
    for (int i = 0; i < records; ++i) {
        TraceRecord r;
        r.op = rng.chance(0.3) ? Op::Store : Op::Load;
        r.addr = 0x100000 + rng.below(lines) * 128 + rng.below(4) * 32;
        r.cta = static_cast<std::int32_t>(rng.below(ctas));
        t->records.push_back(r);
    }
    sealTrace(*t);
    describe = csprintf("trace(%d records, %d ctas, %llu lines)", records,
                        ctas, static_cast<unsigned long long>(lines));
    return makeTraceWorkload(t);
}

/**
 * For half the seeds, shrink @p c's memory-side queues to random
 * sizes within validate()'s bounds and redraw its bank and partition
 * counts where the L2 still divides. Small queues keep banks and
 * channels blocked on the ports and the DRAM queue, which is where
 * the memory-side sleep wakes live. A stream of its own keeps each
 * seed's preset and workload draw unchanged. Returns a description
 * ("" when the preset's shape is kept).
 */
std::string
drawMemoryShape(std::uint64_t seed, GpuConfig &c)
{
    Rng rng(Rng::mixSeed(seed, 0x5ba9e));
    if (!rng.chance(0.5))
        return "";
    // Biased toward the smallest legal sizes.
    auto shrink = [&rng](std::uint32_t &field, std::uint32_t lo) {
        const std::uint32_t pick[] = {lo, lo + 1, 2 * lo + 2, field};
        field = std::max(lo, std::min(field, pick[rng.below(4)]));
    };
    shrink(c.dramSchedQueue, 1);
    shrink(c.dramReturnQueue, 1);
    shrink(c.l2AccessQueue, 1);
    shrink(c.l2MissQueue, 2);
    shrink(c.l2MshrMerge, 1);
    shrink(c.l2RespQueue, c.l2MshrMerge);
    shrink(c.reqEjQueuePackets, 1);
    shrink(c.coreRespFifo, 1);
    shrink(c.injQueuePackets, 1);
    static const std::uint32_t kParts[] = {1, 2, 3, 4, 6, 8};
    static const std::uint32_t kBanks[] = {1, 2, 4};
    const std::uint32_t parts = kParts[rng.below(6)];
    const std::uint32_t banks = kBanks[rng.below(3)];
    if (c.l2TotalSizeBytes %
            (std::uint64_t(parts * banks) * c.lineBytes * c.l2Assoc) ==
        0) {
        c.numPartitions = parts;
        c.l2BanksPerPartition = banks;
    }
    // A sixth of the banks and channels can stretch a bandwidth-bound
    // probe past the default cycle cap.
    c.maxCoreCycles *= 10;
    return csprintf(" [%ux%u banks, dram q %u/%u, l2 q %u/%u/%u merge %u, "
                    "icnt q %u/%u/%u]",
                    c.numPartitions, c.l2BanksPerPartition,
                    c.dramSchedQueue, c.dramReturnQueue, c.l2AccessQueue,
                    c.l2MissQueue, c.l2RespQueue, c.l2MshrMerge,
                    c.injQueuePackets, c.reqEjQueuePackets,
                    c.coreRespFifo);
}

Case
drawCase(std::uint64_t seed)
{
    Rng rng(Rng::mixSeed(seed, 0x51ee9));
    Case c;

    static const char *const kPresets[] = {
        "baseline",    "All",          "HBM",   "L1-bypass",
        "L2-sectored", "L2-decoupled", "P-inf", "P-DRAM",
    };
    constexpr std::uint64_t kNumPresets =
        sizeof(kPresets) / sizeof(kPresets[0]);
    const std::uint64_t pick = rng.below(kNumPresets + 1);
    const std::string preset =
        pick < kNumPresets
            ? std::string(kPresets[pick])
            : csprintf("fixed-%llu",
                       static_cast<unsigned long long>(rng.below(801)));
    EXPECT_TRUE(findConfigPreset(preset, c.config)) << preset;
    const std::string shape = drawMemoryShape(seed, c.config);

    std::string workload;
    switch (rng.below(4)) {
      case 0:
        workload = csprintf(
            "pchase:%llu:%llu",
            static_cast<unsigned long long>(1024ull << rng.below(9)),
            static_cast<unsigned long long>(20 + rng.below(300)));
        EXPECT_TRUE(parseGeneratorForm(workload, c.workload));
        break;
      case 1:
        workload = csprintf(
            "stride:%llu:%llu",
            static_cast<unsigned long long>(32ull << rng.below(8)),
            static_cast<unsigned long long>(64ull * 1024
                                            << rng.below(10)));
        EXPECT_TRUE(parseGeneratorForm(workload, c.workload));
        break;
      case 2: {
        const auto &suite = benchmarkSuite();
        const BenchmarkProfile &p = suite[rng.below(suite.size())];
        const int shrink = 32 << rng.below(3);
        workload = csprintf("%s/shrink=%d", p.name.c_str(), shrink);
        c.workload = shrinkProfile(p, shrink);
        break;
      }
      default:
        c.workload = randomTrace(rng, workload);
        break;
    }
    c.describe = csprintf("seed %llu: %s on %s%s",
                          static_cast<unsigned long long>(seed),
                          workload.c_str(), preset.c_str(),
                          shape.c_str());
    return c;
}

/** Run @p c under @p mode; returns the stats dump. */
std::string
runUnder(const Case &c, SchedulerMode mode)
{
    ScopedSchedulerMode scope(mode);
    Gpu gpu(c.config, c.workload);
    SimResult r = gpu.run();
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(gpu.allocator().outstanding(), 0u)
        << schedulerModeName(mode) << " run leaked packets";
    std::ostringstream os;
    gpu.dumpStats(os);
    return os.str();
}

/** First differing line between two dumps, for a readable failure. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream ia(a), ib(b);
    std::string la, lb;
    for (int n = 1;; ++n) {
        const bool ga = static_cast<bool>(std::getline(ia, la));
        const bool gb = static_cast<bool>(std::getline(ib, lb));
        if (!ga && !gb)
            return "(identical)";
        if (la != lb || ga != gb) {
            return "line " + std::to_string(n) + ":\n  lockstep: " +
                   (ga ? la : "<eof>") + "\n  skip:     " +
                   (gb ? lb : "<eof>");
        }
    }
}

void
checkSeed(std::uint64_t seed)
{
    const Case c = drawCase(seed);
    SCOPED_TRACE(c.describe);
    const std::string lock = runUnder(c, SchedulerMode::Lockstep);
    const std::string skip = runUnder(c, SchedulerMode::Skip);
    EXPECT_TRUE(lock == skip)
        << c.describe << ": lockstep and skip diverged at "
        << firstDiff(lock, skip);
}

void
checkSeeds(std::uint64_t first, std::uint64_t count)
{
    const SimSpeedTotals before = simSpeedTotals();
    for (std::uint64_t s = first; s < first + count; ++s) {
        checkSeed(s);
        if (::testing::Test::HasFailure())
            return; // the first failing seed is the useful one
    }
    // Equivalence of a path nobody takes proves nothing: the budget
    // as a whole must have put SMs, L2 banks and DRAM channels to
    // sleep.
    const SimSpeedTotals after = simSpeedTotals();
    EXPECT_GT(after.sleptCoreCycles, before.sleptCoreCycles)
        << "no SM ever slept across seeds " << first << ".."
        << first + count - 1;
    EXPECT_GT(after.sleptL2Ticks, before.sleptL2Ticks)
        << "no L2 bank ever slept across seeds " << first << ".."
        << first + count - 1;
    EXPECT_GT(after.sleptDramTicks, before.sleptDramTicks)
        << "no DRAM channel ever slept across seeds " << first << ".."
        << first + count - 1;
}

} // namespace

TEST(SleepEquiv, ShortSeedBudget)
{
    checkSeeds(1, 40);
}

TEST(SleepEquiv, DISABLED_LongSeedBudget)
{
    checkSeeds(1000, 1000);
}
