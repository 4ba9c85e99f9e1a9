/**
 * @file
 * Congested-cycle equivalence: per-component sleep (the skip
 * scheduler) and the batched retry/arbitration fast paths (memoized
 * stall retries, row-indexed FR-FCFS buckets, bitset crossbar
 * arbitration) must be *invisible* -- the full stats tree of a
 * congested run has to come out byte-identical to a lockstep run.
 *
 * Tiny synthetic workloads are useless here: they never back up the
 * crossbar ejection buffers or the DRAM scheduler queues, so a broken
 * fast path can pass them while diverging on real traffic (that is
 * exactly how the arbitration-snapshot bug hid from tiny-stream and
 * tiny-mixed but showed up in bfs). This suite therefore runs a real
 * suite benchmark at the golden shrink factor and first *proves* the
 * run was congested -- nonzero backpressure counters at every level --
 * before asserting equivalence.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/dse.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/profile.hh"

using namespace bwsim;

namespace
{

/** Restore the process-global scheduler mode on scope exit. */
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

BenchmarkProfile
congestedProfile()
{
    const BenchmarkProfile *bfs = findBenchmark("bfs");
    EXPECT_NE(bfs, nullptr);
    // Same shrink as the golden snapshots: small enough for a unit-ish
    // runtime, large enough to keep the hierarchy backpressured.
    return shrinkProfile(*bfs, 16);
}

std::string
dumpUnder(SchedulerMode mode)
{
    ScopedSchedulerMode scope(mode);
    Gpu gpu(GpuConfig::baseline(), congestedProfile());
    SimResult r = gpu.run();
    EXPECT_FALSE(r.timedOut);
    std::ostringstream os;
    gpu.dumpStats(os);
    return os.str();
}

/**
 * Everything printed for @p stat between the name and the '#' comment:
 * the formatted value(s) of a scalar or vector stat, or "" if absent.
 */
std::string
statText(const std::string &dump, const std::string &stat)
{
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind(stat, 0) != 0)
            continue;
        const char after = line.size() > stat.size() ? line[stat.size()]
                                                     : '\0';
        if (after != ' ' && after != '\t')
            continue; // prefix of a longer stat name
        std::string rest = line.substr(stat.size());
        const std::size_t hash = rest.find('#');
        if (hash != std::string::npos)
            rest = rest.substr(0, hash);
        return rest;
    }
    return "";
}

/** Sum of a vector stat's "key=value" entries (0 for a scalar). */
double
vectorStatSum(const std::string &dump, const std::string &stat)
{
    const std::string text = statText(dump, stat);
    double sum = 0.0;
    std::size_t pos = 0;
    while ((pos = text.find('=', pos)) != std::string::npos)
        sum += std::stod(text.substr(++pos));
    return sum;
}

double
scalarStat(const std::string &dump, const std::string &stat)
{
    const std::string text = statText(dump, stat);
    return text.empty() ? -1.0 : std::stod(text);
}

/** First differing line between two dumps, for a readable failure. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::istringstream ia(a), ib(b);
    std::string la, lb;
    int n = 0;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(ia, la));
        const bool gb = static_cast<bool>(std::getline(ib, lb));
        ++n;
        if (!ga && !gb)
            return "(identical)";
        if (la != lb || ga != gb) {
            return "line " + std::to_string(n) + ":\n  lockstep: " +
                   (ga ? la : "<eof>") + "\n  skip:     " +
                   (gb ? lb : "<eof>");
        }
    }
}

} // namespace

TEST(CongestedEquiv, SchedulerModesProduceByteIdenticalStats)
{
    const std::string lock = dumpUnder(SchedulerMode::Lockstep);
    const SimSpeedTotals before = simSpeedTotals();
    const std::string skip = dumpUnder(SchedulerMode::Skip);
    const SimSpeedTotals after = simSpeedTotals();

    // The skip run must actually have slept SMs, L2 banks and DRAM
    // channels and charged them in bulk. Sleep is byte-identical by
    // construction, so no table would notice it silently stopping, and
    // this suite would be certifying equivalence of a path nobody
    // takes.
    EXPECT_GT(after.sleptCoreCycles, before.sleptCoreCycles)
        << "skip run slept no SM ticks";
    EXPECT_GT(after.sleptL2Ticks, before.sleptL2Ticks)
        << "skip run slept no L2-bank ticks";
    EXPECT_GT(after.sleptDramTicks, before.sleptDramTicks)
        << "skip run slept no DRAM-channel ticks";

    // The run must actually be congested, or this test proves nothing.
    // Every backpressure mechanism the fast paths touch has to have
    // fired: L1 stall retries (memoized access path), core issue
    // stalls (mask-driven issue selection), crossbar ejection blocking (bitset
    // arbitration), and a non-empty DRAM scheduler queue (row-indexed
    // buckets).
    EXPECT_GT(vectorStatSum(skip, "gpu.core0.l1d.stall_cycles"), 0.0)
        << "L1D never stalled: workload not congested";
    EXPECT_GT(vectorStatSum(skip, "gpu.core0.issue_stalls"), 0.0)
        << "core0 never stalled issue: workload not congested";
    EXPECT_GT(scalarStat(skip, "gpu.icnt.req.eject_blocked_cycles"), 0.0)
        << "request crossbar never blocked: workload not congested";
    EXPECT_GT(scalarStat(skip, "gpu.part0.dram_occ_lifetime"), 0.0)
        << "DRAM scheduler queue never occupied: workload not congested";
    EXPECT_GT(scalarStat(skip, "gpu.part0.l2_access_occ_lifetime"), 0.0)
        << "L2 access queue never occupied: workload not congested";

    EXPECT_TRUE(lock == skip)
        << "lockstep and skip stats diverged at " << firstDiff(lock, skip);
}

TEST(CongestedEquiv, SkipModeIsDeterministic)
{
    const std::string a = dumpUnder(SchedulerMode::Skip);
    const std::string b = dumpUnder(SchedulerMode::Skip);
    EXPECT_TRUE(a == b) << "skip mode not deterministic at "
                        << firstDiff(a, b);
}
