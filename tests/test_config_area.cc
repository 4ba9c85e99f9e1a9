/** @file Tests for GpuConfig presets (Tables I/III) and the area model. */

#include <gtest/gtest.h>

#include "core/cost_model.hh"
#include "gpu/gpu_config.hh"

using namespace bwsim;

TEST(Config, BaselineMatchesTableI)
{
    GpuConfig c = GpuConfig::baseline();
    EXPECT_EQ(c.numCores, 15);
    EXPECT_EQ(c.maxWarpsPerCore * 32, 1536); // threads per SM
    EXPECT_DOUBLE_EQ(c.coreClockMhz, 1400.0);
    EXPECT_DOUBLE_EQ(c.icntClockMhz, 700.0);
    EXPECT_DOUBLE_EQ(c.dramClockMhz, 924.0);
    EXPECT_EQ(c.l1dSizeBytes, 16u * 1024);
    EXPECT_EQ(c.lineBytes, 128u);
    EXPECT_EQ(c.l1dAssoc, 4u);
    EXPECT_EQ(c.l1dMshrEntries, 32u);
    EXPECT_EQ(c.l1dMissQueue, 8u);
    EXPECT_EQ(c.reqFlitBytes, 32u);
    EXPECT_EQ(c.replyFlitBytes, 32u);
    EXPECT_EQ(c.l2TotalSizeBytes, 768u * 1024);
    EXPECT_EQ(c.l2Assoc, 8u);
    EXPECT_EQ(c.totalL2Banks(), 12u);
    EXPECT_EQ(c.l2MshrEntries, 32u);
    EXPECT_EQ(c.l2MissQueue, 8u);
    EXPECT_EQ(c.l2PortBytes, 32u);
    EXPECT_EQ(c.l2AccessQueue, 8u);
    EXPECT_EQ(c.dramSchedQueue, 16u);
    EXPECT_EQ(c.dramBanks, 16u);
    EXPECT_EQ(c.numPartitions, 6u);
    EXPECT_EQ(c.memPipelineWidth, 10);
    // Table I DRAM timing.
    EXPECT_EQ(c.dramTiming.tCCD, 2u);
    EXPECT_EQ(c.dramTiming.tRRD, 6u);
    EXPECT_EQ(c.dramTiming.tRCD, 12u);
    EXPECT_EQ(c.dramTiming.tRAS, 28u);
    EXPECT_EQ(c.dramTiming.tRP, 12u);
    EXPECT_EQ(c.dramTiming.tRC, 40u);
    EXPECT_EQ(c.dramTiming.CL, 12u);
    EXPECT_EQ(c.dramTiming.WL, 4u);
    EXPECT_EQ(c.dramTiming.tCDLR, 5u);
    EXPECT_EQ(c.dramTiming.tWR, 12u);
}

TEST(Config, ScaledMatchesTableIII)
{
    GpuConfig s = GpuConfig::scaledAll();
    EXPECT_EQ(s.dramSchedQueue, 64u);
    EXPECT_EQ(s.dramBanks, 64u);
    EXPECT_EQ(s.dramBusBytesPerCycle, 128u); // 1536-bit bus
    EXPECT_EQ(s.l2MissQueue, 32u);
    EXPECT_EQ(s.l2RespQueue, 32u);
    EXPECT_EQ(s.l2MshrEntries, 128u);
    EXPECT_EQ(s.l2AccessQueue, 32u);
    EXPECT_EQ(s.l2PortBytes, 128u);
    EXPECT_EQ(s.reqFlitBytes, 128u);
    EXPECT_EQ(s.replyFlitBytes, 128u);
    EXPECT_EQ(s.totalL2Banks(), 48u);
    EXPECT_EQ(s.l1dMissQueue, 32u);
    EXPECT_EQ(s.l1dMshrEntries, 128u);
    EXPECT_EQ(s.memPipelineWidth, 40);
}

TEST(Config, CostEffectiveMatchesTableIII)
{
    GpuConfig ce = GpuConfig::costEffective16_48();
    // Type '=' scaled to 32 / 48 / 40; Type '+' left at baseline
    // except the asymmetric crossbar.
    EXPECT_EQ(ce.dramSchedQueue, 16u);
    EXPECT_EQ(ce.dramBanks, 16u);
    EXPECT_EQ(ce.dramBusBytesPerCycle, 32u);
    EXPECT_EQ(ce.l2MissQueue, 32u);
    EXPECT_EQ(ce.l2RespQueue, 32u);
    EXPECT_EQ(ce.l2MshrEntries, 32u);
    EXPECT_EQ(ce.l2AccessQueue, 32u);
    EXPECT_EQ(ce.l2PortBytes, 32u);
    EXPECT_EQ(ce.totalL2Banks(), 12u);
    EXPECT_EQ(ce.l1dMissQueue, 32u);
    EXPECT_EQ(ce.l1dMshrEntries, 48u);
    EXPECT_EQ(ce.memPipelineWidth, 40);
    EXPECT_EQ(ce.reqFlitBytes, 16u);
    EXPECT_EQ(ce.replyFlitBytes, 48u);

    EXPECT_EQ(GpuConfig::costEffective16_68().replyFlitBytes, 68u);
    EXPECT_EQ(GpuConfig::costEffective32_52().reqFlitBytes, 32u);
    EXPECT_EQ(GpuConfig::costEffective32_52().replyFlitBytes, 52u);
}

TEST(Config, AsymmetricCrossbarsPreserveOrGrowWires)
{
    // 16+48 keeps the baseline 64B of point-to-point wires; 16+68 and
    // 32+52 add exactly 20B (§VII-B).
    GpuConfig b = GpuConfig::baseline();
    EXPECT_EQ(b.reqFlitBytes + b.replyFlitBytes, 64u);
    GpuConfig a = GpuConfig::costEffective16_48();
    EXPECT_EQ(a.reqFlitBytes + a.replyFlitBytes, 64u);
    GpuConfig c = GpuConfig::costEffective16_68();
    EXPECT_EQ(c.reqFlitBytes + c.replyFlitBytes, 84u);
    GpuConfig d = GpuConfig::costEffective32_52();
    EXPECT_EQ(d.reqFlitBytes + d.replyFlitBytes, 84u);
}

TEST(Config, HbmIsDramScaled)
{
    GpuConfig h = GpuConfig::hbm();
    GpuConfig d = GpuConfig::scaledDram();
    EXPECT_EQ(h.dramBusBytesPerCycle, d.dramBusBytesPerCycle);
    EXPECT_EQ(h.dramSchedQueue, d.dramSchedQueue);
    EXPECT_EQ(h.dramBanks, d.dramBanks);
    // Caches stay baseline.
    EXPECT_EQ(h.l2MshrEntries, 32u);
    EXPECT_EQ(h.reqFlitBytes, 32u);
}

TEST(Config, FindConfigPresetResolvesEveryFactoryName)
{
    GpuConfig c;
    ASSERT_TRUE(findConfigPreset("baseline", c));
    EXPECT_EQ(c.name, "baseline");
    ASSERT_TRUE(findConfigPreset("L2+DRAM", c));
    EXPECT_EQ(c.name, "L2+DRAM");
    ASSERT_TRUE(findConfigPreset("P-inf", c));
    EXPECT_EQ(c.mode, MemoryMode::PerfectMem);
    ASSERT_TRUE(findConfigPreset("fixed-200", c));
    EXPECT_EQ(c.mode, MemoryMode::FixedL1Lat);
    EXPECT_EQ(c.fixedL1MissLatency, 200u);

    EXPECT_FALSE(findConfigPreset("warp-drive", c));
    EXPECT_FALSE(findConfigPreset("fixed-", c));
    EXPECT_FALSE(findConfigPreset("fixed-12x", c));
    // Out-of-range latencies are unknown presets, never wrapped.
    EXPECT_FALSE(findConfigPreset("fixed-4294967296", c));
    EXPECT_FALSE(findConfigPreset("fixed-99999999999999999999", c));

    // Every advertised name (minus the fixed-<N> placeholder) resolves.
    for (const auto &name : configPresetNames()) {
        if (name != "fixed-<N>") {
            EXPECT_TRUE(findConfigPreset(name, c)) << name;
        }
    }
}

namespace
{

/** validate() must end a config the SM cannot run with one fatal
 *  line naming the field (it can arrive in a serialized queue job). */
void
expectRejected(void (*mutate)(GpuConfig &), const char *message)
{
    GpuConfig c = GpuConfig::baseline();
    mutate(c);
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), message);
}

} // namespace

TEST(ConfigDeathTest, ValidateRejectsCoreShapesTheSmCannotRun)
{
    GpuConfig::baseline().validate(); // the baseline itself passes
    expectRejected([](GpuConfig &c) { c.numCores = 0; },
                   "numCores = 0, must be in 1..64");
    expectRejected([](GpuConfig &c) { c.numCores = 65; },
                   "numCores = 65, must be in 1..64");
    expectRejected([](GpuConfig &c) { c.maxWarpsPerCore = 65; },
                   "maxWarpsPerCore = 65, must be in 1..64");
    expectRejected([](GpuConfig &c) { c.numSchedulers = 0; },
                   "numSchedulers = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.fetchWidth = 0; },
                   "fetchWidth = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.memPipelineWidth = 0; },
                   "memPipelineWidth = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.ibufferEntries = 0; },
                   "ibufferEntries = 0, must be in 1..255");
    expectRejected([](GpuConfig &c) { c.ibufferEntries = 256; },
                   "ibufferEntries = 256, must be in 1..255");
}

TEST(ConfigDeathTest, ValidateRejectsMemoryShapesTheSimulatorCannotRun)
{
    expectRejected([](GpuConfig &c) { c.numPartitions = 0; },
                   "numPartitions = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.l2BanksPerPartition = 0; },
                   "l2BanksPerPartition = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.l2Assoc = 0; },
                   "l2Assoc = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.l2BanksPerPartition = 16; },
                   "totalL2Banks = 96, must be <= 64");
    expectRejected([](GpuConfig &c) { c.dramBanks = 0; },
                   "dramBanks = 0, must be in 1..64");
    expectRejected([](GpuConfig &c) { c.dramBanks = 128; },
                   "dramBanks = 128, must be in 1..64");
    expectRejected([](GpuConfig &c) { c.dramBusBytesPerCycle = 0; },
                   "dramBusBytesPerCycle = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.dramRowBytes = 64; },
                   "dramRowBytes = 64, must be >= lineBytes");
    expectRejected([](GpuConfig &c) { c.l2AccessQueue = 0; },
                   "l2AccessQueue = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.l2MissQueue = 1; },
                   "l2MissQueue = 1, must be >= 2");
    expectRejected([](GpuConfig &c) { c.l2MshrMerge = 0; },
                   "l2MshrMerge = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.l2RespQueue = 0; },
                   "l2RespQueue = 0, must be >= l2MshrMerge");
    expectRejected([](GpuConfig &c) { c.l2RespQueue = 7; },
                   "l2RespQueue = 7, must be >= l2MshrMerge");
    expectRejected([](GpuConfig &c) { c.l2MshrEntries = 0; },
                   "l2MshrEntries = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.dramSchedQueue = 0; },
                   "dramSchedQueue = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.dramReturnQueue = 0; },
                   "dramReturnQueue = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.injQueuePackets = 0; },
                   "injQueuePackets = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.coreRespFifo = 0; },
                   "coreRespFifo = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.reqEjQueuePackets = 0; },
                   "reqEjQueuePackets = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.reqFlitBytes = 0; },
                   "reqFlitBytes = 0, must be >= 1");
    expectRejected([](GpuConfig &c) { c.replyFlitBytes = 0; },
                   "replyFlitBytes = 0, must be >= 1");
}

TEST(Config, ModesSelectCorrectBackend)
{
    EXPECT_EQ(GpuConfig::baseline().mode, MemoryMode::Normal);
    EXPECT_EQ(GpuConfig::perfectMem().mode, MemoryMode::PerfectMem);
    EXPECT_EQ(GpuConfig::idealDram().mode, MemoryMode::IdealDram);
    GpuConfig f = GpuConfig::fixedL1Lat(350);
    EXPECT_EQ(f.mode, MemoryMode::FixedL1Lat);
    EXPECT_EQ(f.fixedL1MissLatency, 350u);
}

TEST(Config, DerivedBundles)
{
    GpuConfig c = GpuConfig::baseline();
    EXPECT_EQ(c.l2BankParams().sizeBytes, 768u * 1024 / 12);
    EXPECT_EQ(c.l2BankParams().indexDivisor, 12u);
    EXPECT_EQ(c.l1dParams().writePolicy, WritePolicy::WriteEvict);
    EXPECT_EQ(c.l2BankParams().writePolicy, WritePolicy::WriteBack);
    EXPECT_EQ(c.reqNetParams().numSources, 15u);
    EXPECT_EQ(c.reqNetParams().numDests, 12u);
    EXPECT_EQ(c.replyNetParams().numSources, 12u);
    EXPECT_EQ(c.replyNetParams().numDests, 15u);
    EXPECT_NEAR(c.coreParams(0).corePeriodPs, 714.29, 0.01);
}

TEST(AreaModel, WireArithmeticMatchesPaper)
{
    // 11.6 mm^2 of wires for 64B point-to-point; +20B = +3.62 mm^2.
    EXPECT_NEAR(AreaModel::wireMm2(64), 11.6, 1e-9);
    EXPECT_NEAR(AreaModel::wireMm2(84) - AreaModel::wireMm2(64), 3.625,
                1e-3);
}

TEST(AreaModel, CostEffectiveStorageNearPaper)
{
    AreaReport r = AreaModel::delta(GpuConfig::baseline(),
                                    GpuConfig::costEffective16_48());
    // Paper: ~94 KB of storage -> 7.48 mm^2 -> ~1.1% of a 700 mm^2 die.
    EXPECT_NEAR(r.storageKB, 93.0, 3.0);
    EXPECT_NEAR(r.storageMm2, 7.4, 0.3);
    EXPECT_NEAR(r.wireDeltaMm2, 0.0, 1e-9); // 16+48 keeps 64B wires
    EXPECT_NEAR(r.dieFraction, 0.011, 0.001);
}

TEST(AreaModel, WiderCrossbarsNearSixteenPercentPaper)
{
    for (auto cfg : {GpuConfig::costEffective16_68(),
                     GpuConfig::costEffective32_52()}) {
        AreaReport r = AreaModel::delta(GpuConfig::baseline(), cfg);
        EXPECT_NEAR(r.wireDeltaMm2, 3.625, 0.01) << cfg.name;
        // Paper: ~1.6% total die overhead.
        EXPECT_NEAR(r.dieFraction, 0.016, 0.0015) << cfg.name;
    }
}

TEST(AreaModel, BaselineDeltaIsZero)
{
    AreaReport r = AreaModel::delta(GpuConfig::baseline(),
                                    GpuConfig::baseline());
    EXPECT_DOUBLE_EQ(r.storageKB, 0.0);
    EXPECT_DOUBLE_EQ(r.totalMm2, 0.0);
    EXPECT_TRUE(r.items.empty());
}

TEST(AreaModel, ItemsAccountForEveryStructure)
{
    AreaReport r = AreaModel::delta(GpuConfig::baseline(),
                                    GpuConfig::costEffective16_48());
    std::set<std::string> names;
    for (const auto &i : r.items)
        names.insert(i.structure);
    EXPECT_TRUE(names.count("L2 access queue"));
    EXPECT_TRUE(names.count("L2 response queue"));
    EXPECT_TRUE(names.count("L2 miss queue"));
    EXPECT_TRUE(names.count("L1 miss queue"));
    EXPECT_TRUE(names.count("L1 MSHR"));
    EXPECT_TRUE(names.count("Memory pipeline"));
    EXPECT_FALSE(names.count("DRAM scheduler queue")); // unchanged
}
