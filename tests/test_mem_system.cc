/**
 * @file
 * Tests for the MemSystem seam (mem/mem_system.*) and the stats tree
 * it feeds: the factory picks the right hierarchy per MemoryMode, the
 * Gpu tick/done paths work identically through the seam for normal
 * and ideal modes, and the tree rooted at "gpu" has stable group and
 * stat names, deterministic grouping, and a write-through reset().
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gpu/gpu.hh"
#include "mem/mem_system.hh"
#include "sim/sim_speed.hh"

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

GpuConfig
quickConfig(GpuConfig c = GpuConfig::baseline())
{
    c.maxCoreCycles = 400000;
    return c;
}

std::string
dumped(const Gpu &gpu)
{
    std::ostringstream os;
    gpu.dumpStats(os);
    return os.str();
}

} // namespace

TEST(MemSystem, FactoryPicksTheHierarchyPerMode)
{
    BenchmarkProfile p = makeTestProfile("tiny-compute");

    Gpu normal(quickConfig(), p);
    EXPECT_NE(dynamic_cast<NormalMemSystem *>(&normal.memSystem()),
              nullptr);
    EXPECT_NE(normal.interconnect(), nullptr);
    EXPECT_EQ(normal.memSystem().numPartitions(), 6);

    // P_DRAM keeps the real crossbars and L2 banks; only the channel
    // inside each partition is ideal.
    Gpu pdram(quickConfig(GpuConfig::idealDram()), p);
    EXPECT_NE(dynamic_cast<NormalMemSystem *>(&pdram.memSystem()),
              nullptr);
    EXPECT_NE(pdram.interconnect(), nullptr);

    Gpu pinf(quickConfig(GpuConfig::perfectMem()), p);
    EXPECT_NE(dynamic_cast<IdealMemSystem *>(&pinf.memSystem()), nullptr);
    EXPECT_EQ(pinf.interconnect(), nullptr);
    EXPECT_EQ(pinf.memSystem().numPartitions(), 0);

    Gpu fixed(quickConfig(GpuConfig::fixedL1Lat(200)), p);
    EXPECT_NE(dynamic_cast<IdealMemSystem *>(&fixed.memSystem()), nullptr);
    EXPECT_EQ(fixed.interconnect(), nullptr);
}

/** Every mode must drain and complete through the seam: same issued
 *  work, no timeout, no leaked packet, a drained memory system. */
class MemSystemDrain : public ::testing::TestWithParam<int>
{
  public:
    static GpuConfig
    configFor(int idx)
    {
        switch (idx) {
          case 0:
            return GpuConfig::baseline();
          case 1:
            return GpuConfig::idealDram();
          case 2:
            return GpuConfig::perfectMem();
          default:
            return GpuConfig::fixedL1Lat(150);
        }
    }
};

TEST_P(MemSystemDrain, CompletesAndDrains)
{
    Gpu gpu(quickConfig(configFor(GetParam())),
            makeTestProfile("tiny-mixed"));
    SimResult r = gpu.run();
    EXPECT_FALSE(r.timedOut);
    // The workload fixes the instruction count, so every hierarchy
    // must retire exactly the same work (the pre-refactor contract).
    EXPECT_EQ(r.warpInstsIssued, 16u * 4 * 120);
    EXPECT_EQ(gpu.allocator().outstanding(), 0u);
    EXPECT_TRUE(gpu.memSystem().drained());
    EXPECT_TRUE(gpu.allWorkDone());
}

INSTANTIATE_TEST_SUITE_P(Modes, MemSystemDrain, ::testing::Range(0, 4));

/**
 * The ideal hierarchies have nothing on the icnt and DRAM clocks, so
 * the chip runs on the core clock alone: every clock edge is a core
 * edge, ticked under either scheduler. An extra domain would add edges
 * that are not core cycles.
 */
TEST(ClockDomains, IdealHierarchiesClockOnlyTheCoreDomain)
{
    for (const GpuConfig &base :
         {GpuConfig::perfectMem(), GpuConfig::fixedL1Lat(0),
          GpuConfig::fixedL1Lat(200)}) {
        for (SchedulerMode mode :
             {SchedulerMode::Lockstep, SchedulerMode::Skip}) {
            ScopedSchedulerMode guard(mode);
            Gpu gpu(quickConfig(base), makeTestProfile("tiny-latency"));
            EXPECT_FALSE(gpu.memSystem().hasMemoryClocks());
            const SimSpeedTotals before = simSpeedTotals();
            SimResult r = gpu.run();
            const SimSpeedTotals after = simSpeedTotals();
            ASSERT_FALSE(r.timedOut) << base.name;
            EXPECT_EQ(after.tickedEdges - before.tickedEdges, r.coreCycles)
                << base.name << " " << schedulerModeName(mode);
        }
    }
}

/**
 * P_DRAM idealizes only the channel inside each partition: its DRAM
 * clock still runs, because gpu.bw.dram_cycles and the L2<->DRAM
 * bytes-per-cycle formulas count its edges. No table or scheduler
 * differential would notice that clock going missing (both schedulers
 * would lose it alike), so pin it: the DRAM cycle count matches the
 * elapsed time at the DRAM frequency.
 */
TEST(ClockDomains, IdealDramStillTicksItsDramClock)
{
    for (SchedulerMode mode :
         {SchedulerMode::Lockstep, SchedulerMode::Skip}) {
        ScopedSchedulerMode guard(mode);
        const GpuConfig cfg = quickConfig(GpuConfig::idealDram());
        Gpu gpu(cfg, makeTestProfile("tiny-stream"));
        EXPECT_TRUE(gpu.memSystem().hasMemoryClocks());
        SimResult r = gpu.run();
        ASSERT_FALSE(r.timedOut);
        const stats::Group *bw = gpu.statsTree().child("bw");
        ASSERT_NE(bw, nullptr);
        const stats::StatBase *dc = bw->stat("dram_cycles");
        ASSERT_NE(dc, nullptr);
        const double expected = r.elapsedPs * cfg.dramClockMhz / 1e6;
        EXPECT_GT(dc->value(), 0.0);
        EXPECT_LE(std::fabs(dc->value() - expected), 1.0 + 1e-6)
            << schedulerModeName(mode) << ": " << dc->value()
            << " DRAM cycles over " << r.elapsedPs << " ps";
    }
}

TEST(MemSystem, NormalAndIdealAgreeWithHarvestSemantics)
{
    BenchmarkProfile p = makeTestProfile("tiny-stream");
    SimResult normal = Gpu(quickConfig(), p).run();
    SimResult pinf = Gpu(quickConfig(GpuConfig::perfectMem()), p).run();

    // The normal hierarchy measures the memory side; the ideal one
    // reports zeros there (no partitions exist to measure) while the
    // core side stays fully populated.
    EXPECT_GT(normal.l2Accesses, 0u);
    EXPECT_GT(normal.dramReads, 0u);
    EXPECT_EQ(pinf.l2Accesses, 0u);
    EXPECT_EQ(pinf.dramReads, 0u);
    EXPECT_GT(pinf.l1Accesses, 0u);
    EXPECT_GT(pinf.aml, 0.0);
}

TEST(StatsTree, NormalModeNamesAndGrouping)
{
    Gpu gpu(quickConfig(), makeTestProfile("tiny-stream"));
    gpu.run();
    const std::string out = dumped(gpu);

    // Core side: per-core groups with L1 children.
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(out.find("gpu.core14.issue_stalls"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.l1d.accesses"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.l1i.accesses"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.l1d.stall_cycles"), std::string::npos);

    // Memory side: both networks, every partition, banks + DRAM +
    // occupancy histograms.
    EXPECT_NE(out.find("gpu.icnt.req.packets_injected"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.icnt.reply.bytes_carried"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.part0.l2b0.read_misses"), std::string::npos);
    EXPECT_NE(out.find("gpu.part5.l2b1.accesses"), std::string::npos);
    EXPECT_NE(out.find("gpu.part0.dram.activates"), std::string::npos);
    EXPECT_NE(out.find("gpu.part0.l2_access_occ"), std::string::npos);
    EXPECT_NE(out.find("gpu.part0.dram_occ_lifetime"), std::string::npos);
}

TEST(StatsTree, IdealModesOmitTheUnmodelledLevels)
{
    Gpu pinf(quickConfig(GpuConfig::perfectMem()),
             makeTestProfile("tiny-stream"));
    pinf.run();
    const std::string out = dumped(pinf);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_EQ(out.find("gpu.icnt."), std::string::npos);
    EXPECT_EQ(out.find("gpu.part"), std::string::npos);

    // P_DRAM keeps partitions but has no GDDR5 channel to measure.
    Gpu pdram(quickConfig(GpuConfig::idealDram()),
              makeTestProfile("tiny-stream"));
    pdram.run();
    const std::string out2 = dumped(pdram);
    EXPECT_NE(out2.find("gpu.part0.l2b0.accesses"), std::string::npos);
    EXPECT_EQ(out2.find("gpu.part0.dram."), std::string::npos);
}

TEST(StatsTree, GroupsRegisterInConstructionOrder)
{
    Gpu gpu(quickConfig(), makeTestProfile("tiny-compute"));
    const auto &kids = gpu.statsTree().children();
    // core0..core14, then icnt, then part0..part5, then the bw
    // formula group -- the order the declarative harvest relies on
    // for deterministic aggregation.
    ASSERT_EQ(kids.size(), 15u + 1 + 6 + 1);
    EXPECT_EQ(kids.front()->name(), "core0");
    EXPECT_EQ(kids[14]->name(), "core14");
    EXPECT_EQ(kids[15]->name(), "icnt");
    EXPECT_EQ(kids[16]->name(), "part0");
    EXPECT_EQ(kids[21]->name(), "part5");
    EXPECT_EQ(kids.back()->name(), "bw");
}

TEST(StatsTree, ResetWritesThroughToTheCounters)
{
    Gpu gpu(quickConfig(), makeTestProfile("tiny-mixed"));
    SimResult before = gpu.run();
    ASSERT_GT(before.warpInstsIssued, 0u);
    ASSERT_GT(gpu.core(0).counters().issuedInsts, 0u);
    ASSERT_GT(gpu.core(0).l1d().counters().accesses, 0u);

    gpu.statsTree().resetAll();

    // Bound stats are views: resetting the tree zeroes the component
    // counters themselves, and a fresh harvest sees an untouched chip.
    EXPECT_EQ(gpu.core(0).counters().issuedInsts, 0u);
    EXPECT_EQ(gpu.core(0).l1d().counters().accesses, 0u);
    SimResult after = gpu.harvest();
    EXPECT_EQ(after.warpInstsIssued, 0u);
    EXPECT_EQ(after.l1Accesses, 0u);
    EXPECT_EQ(after.l2Accesses, 0u);
    EXPECT_DOUBLE_EQ(after.aml, 0.0);
    EXPECT_DOUBLE_EQ(after.dramEfficiency, 0.0);
}

TEST(StatsTree, HarvestMatchesDirectCounterAggregation)
{
    Gpu gpu(quickConfig(), makeTestProfile("tiny-stream"));
    SimResult r = gpu.run();

    // Cross-check the tree-driven harvest against a hand aggregation
    // over the component counters it abstracts away.
    std::uint64_t issued = 0, l1_acc = 0;
    for (int c = 0; c < gpu.config().numCores; ++c) {
        issued += gpu.core(c).counters().issuedInsts;
        l1_acc += gpu.core(c).l1d().counters().accesses;
    }
    EXPECT_EQ(r.warpInstsIssued, issued);
    EXPECT_EQ(r.l1Accesses, l1_acc);

    std::uint64_t dram_reads = 0;
    std::uint64_t l2_acc = 0;
    for (int p = 0; p < gpu.memSystem().numPartitions(); ++p) {
        MemoryPartition *part = gpu.memSystem().partition(p);
        dram_reads += part->dram().counters().reads;
        for (std::uint32_t b = 0; b < gpu.config().l2BanksPerPartition;
             ++b)
            l2_acc += part->l2Bank(b).counters().accesses;
    }
    EXPECT_EQ(r.dramReads, dram_reads);
    EXPECT_EQ(r.l2Accesses, l2_acc);
}

/** One baseline run per fixture-lifetime for the bandwidth tests. */
static SimResult
runVariant(GpuConfig cfg, const char *profile = "tiny-divergent")
{
    Gpu gpu(quickConfig(std::move(cfg)), makeTestProfile(profile));
    SimResult r = gpu.run();
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(gpu.allocator().outstanding(), 0u);
    EXPECT_TRUE(gpu.memSystem().drained());
    return r;
}

TEST(Bandwidth, BaselineCountersNonZeroAndConserved)
{
    Gpu gpu(quickConfig(), makeTestProfile("tiny-divergent"));
    SimResult r = gpu.run();
    ASSERT_FALSE(r.timedOut);

    EXPECT_GT(r.l1IcntBytes, 0u);
    EXPECT_GT(r.icntL2Bytes, 0u);
    EXPECT_GT(r.l2DramBytes, 0u);
    EXPECT_GT(r.l1IcntBpc, 0.0);
    EXPECT_GT(r.icntL2Bpc, 0.0);
    EXPECT_GT(r.l2DramBpc, 0.0);

    // With everything drained, the crossbar conserves bytes: what the
    // cores handed the networks equals what the L2s and cores got.
    EXPECT_EQ(r.l1IcntBytes, r.icntL2Bytes);

    // Utilization is what distinguishes the two icnt boundaries: the
    // same bytes cross 15 core-side ports but only 12 bank-side
    // ports, so the bank side runs proportionally hotter.
    EXPECT_GT(r.l1IcntUtil, 0.0);
    EXPECT_GT(r.l2DramUtil, 0.0);
    EXPECT_NEAR(r.icntL2Util, r.l1IcntUtil * 15.0 / 12.0, 1e-12);

    // The per-core counters (threaded through SmCore) attribute the
    // same boundary: their sum must equal the network-side total.
    std::uint64_t core_bytes = 0;
    for (int c = 0; c < gpu.config().numCores; ++c) {
        core_bytes += gpu.core(c).counters().reqBytesOut +
                      gpu.core(c).counters().replyBytesIn;
    }
    EXPECT_EQ(core_bytes, r.l1IcntBytes);
}

TEST(Bandwidth, IdealHierarchiesReportZero)
{
    SimResult r = runVariant(GpuConfig::perfectMem());
    EXPECT_EQ(r.l1IcntBytes, 0u);
    EXPECT_EQ(r.icntL2Bytes, 0u);
    EXPECT_EQ(r.l2DramBytes, 0u);
}

TEST(Bandwidth, IdealDramStillCountsTheL2DramBoundary)
{
    // P_DRAM keeps the crossbars and L2; the ideal pipe still moves
    // (and now counts) bytes at the L2<->DRAM boundary.
    SimResult r = runVariant(GpuConfig::idealDram());
    EXPECT_GT(r.l1IcntBytes, 0u);
    EXPECT_GT(r.l2DramBytes, 0u);
}

TEST(HierarchyVariants, BypassLowersL1IcntTraffic)
{
    SimResult base = runVariant(GpuConfig::baseline());
    SimResult byp = runVariant(GpuConfig::l1Bypass());

    // The divergent workload demands 32 of every 128-byte line, so
    // demand-sized bypass replies shrink the read-allocate traffic.
    EXPECT_LT(byp.l1IcntBytes, base.l1IcntBytes);
    EXPECT_GT(byp.l1IcntBytes, 0u);
}

TEST(HierarchyVariants, BypassedL1NeverFills)
{
    Gpu gpu(quickConfig(GpuConfig::l1Bypass()),
            makeTestProfile("tiny-divergent"));
    SimResult r = gpu.run();
    ASSERT_FALSE(r.timedOut);
    const auto l1d = stats::findGroups(gpu.statsTree(), "core*.l1d");
    EXPECT_EQ(stats::sumScalar(l1d, "fills"), 0u);
    EXPECT_EQ(stats::sumScalar(l1d, "mshr_merges"), 0u);
    EXPECT_GT(stats::sumScalar(l1d, "bypassed_reads"), 0u);
    EXPECT_EQ(stats::sumScalar(l1d, "bypassed_reads"),
              stats::sumScalar(l1d, "read_misses"));
}

TEST(HierarchyVariants, SectoringLowersIcntL2AndDramTraffic)
{
    SimResult base = runVariant(GpuConfig::baseline());
    SimResult sec = runVariant(GpuConfig::l2Sectored());

    // Demand-sized fetches shrink the reply path, and sector-covering
    // stores skip fetch-on-write, shrinking the DRAM read path.
    EXPECT_LT(sec.icntL2Bytes, base.icntL2Bytes);
    EXPECT_LT(sec.l2DramBytes, base.l2DramBytes);
    EXPECT_GT(sec.icntL2Bytes, 0u);
    EXPECT_GT(sec.l2DramBytes, 0u);
}

TEST(HierarchyVariants, DecouplingChangesTheBankDistribution)
{
    Gpu base(quickConfig(), makeTestProfile("tiny-mixed"));
    base.run();
    Gpu dec(quickConfig(GpuConfig::l2Decoupled()),
            makeTestProfile("tiny-mixed"));
    SimResult r = dec.run();
    ASSERT_FALSE(r.timedOut);

    // 24 banks instead of 12, and the dense streams spread over them.
    const auto base_banks =
        stats::findGroups(base.statsTree(), "part*.l2b*");
    const auto dec_banks = stats::findGroups(dec.statsTree(), "part*.l2b*");
    EXPECT_EQ(base_banks.size(), 12u);
    ASSERT_EQ(dec_banks.size(), 24u);
    std::size_t used = 0;
    for (const auto *g : dec_banks) {
        const auto *acc =
            dynamic_cast<const stats::BoundScalar *>(g->stat("accesses"));
        ASSERT_NE(acc, nullptr);
        if (acc->get() > 0)
            ++used;
    }
    EXPECT_GT(used, 12u); // the extra banks actually take traffic
}

TEST(HierarchyVariants, PresetsResolveByName)
{
    GpuConfig c;
    ASSERT_TRUE(findConfigPreset("L1-bypass", c));
    EXPECT_TRUE(c.l1BypassReads);
    ASSERT_TRUE(findConfigPreset("L2-sectored", c));
    EXPECT_EQ(c.sectorBytes, 32u);
    ASSERT_TRUE(findConfigPreset("L2-decoupled", c));
    EXPECT_EQ(c.l2Interleave, L2Interleave::BankFirst);
    EXPECT_EQ(c.totalL2Banks(), 24u);
    c.validate(); // the decoupled geometry must divide the L2
}
