/**
 * @file
 * WorkloadSpec suite: the tagged workload union behind every
 * simulation. Four properties are load-bearing enough to pin here:
 *
 *  1. Key degradation -- a Synthetic spec's cacheKey() is
 *     byte-identical to the wrapped profile's, for every suite
 *     benchmark. This is what makes the refactor a zero-rebless
 *     change: every pre-existing disk-cache entry and golden file
 *     keeps its identity.
 *  2. Content addressing -- trace keys depend on the records, never
 *     the file name or encoding, so `bwsim trace pack` and file moves
 *     cannot invalidate cached results.
 *  3. Parser hardening -- malformed text, truncated binary and
 *     overflowing generator parameters are rejected with
 *     diagnostics, never accepted, wrapped or crashed on.
 *  4. Parameter recovery -- the pointer-chase and stride generators,
 *     run through the full simulator, measure back the configured
 *     L1/L2/DRAM latency and bandwidth parameters. This validates
 *     both the generators and the hierarchy model against each other.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dse.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/generators.hh"
#include "workloads/profile.hh"
#include "workloads/trace_source.hh"
#include "workloads/workload_spec.hh"

using namespace bwsim;

namespace
{

/** Restore the process-global scheduler mode on scope exit. */
struct ScopedSchedulerMode
{
    explicit ScopedSchedulerMode(SchedulerMode m) : saved(schedulerMode())
    {
        setSchedulerMode(m);
    }
    ~ScopedSchedulerMode() { setSchedulerMode(saved); }
    SchedulerMode saved;
};

std::shared_ptr<const TraceData>
parseOrDie(const std::string &text, const std::string &name = "t.trace")
{
    auto t = std::make_shared<TraceData>();
    std::istringstream in(text);
    std::string err;
    EXPECT_TRUE(parseTextTrace(in, name, *t, err)) << err;
    return t;
}

std::string
parseError(const std::string &text)
{
    TraceData t;
    std::istringstream in(text);
    std::string err;
    EXPECT_FALSE(parseTextTrace(in, "bad.trace", t, err));
    return err;
}

/** A trace big enough to put real traffic through the hierarchy. */
std::shared_ptr<const TraceData>
busyTrace()
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "busy";
    for (int i = 0; i < 600; ++i) {
        TraceRecord r;
        r.op = (i % 3 == 2) ? Op::Store : Op::Load;
        // Spread over many lines and DRAM rows, with some reuse.
        r.addr = 0x10000 + static_cast<Addr>((i * 37) % 192) * 128 +
                 static_cast<Addr>(i % 5) * 64 * 1024;
        t->records.push_back(r);
    }
    sealTrace(*t);
    return t;
}

WorkloadSpec
generatorSpec(const std::string &form)
{
    WorkloadSpec s;
    EXPECT_TRUE(parseGeneratorForm(form, s)) << form;
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// 1. Key degradation: the zero-rebless guarantee.
// ---------------------------------------------------------------------

TEST(WorkloadKey, SyntheticKeyDegradesToProfileKeyForWholeSuite)
{
    for (const BenchmarkProfile &p : benchmarkSuite()) {
        const WorkloadSpec spec = p;
        EXPECT_EQ(spec.cacheKey(), p.cacheKey()) << p.name;
        // And for the shrunk variants tests and sweeps actually run.
        const BenchmarkProfile small = shrinkProfile(p, 16);
        EXPECT_EQ(WorkloadSpec(small).cacheKey(), small.cacheKey())
            << p.name;
    }
    const BenchmarkProfile tiny = makeTestProfile("tiny-compute");
    EXPECT_EQ(WorkloadSpec(tiny).cacheKey(), tiny.cacheKey());
}

TEST(WorkloadKey, NonSyntheticKeysCannotCollideWithProfileKeys)
{
    // Profile keys lead with a KeyBuilder length prefix (a digit);
    // trace and generator keys are marked with '#'.
    for (const BenchmarkProfile &p : benchmarkSuite()) {
        ASSERT_FALSE(p.cacheKey().empty());
        EXPECT_TRUE(isdigit(static_cast<unsigned char>(p.cacheKey()[0])))
            << p.name;
    }
    const WorkloadSpec trace = makeTraceWorkload(busyTrace());
    const WorkloadSpec gen = generatorSpec("pchase:8k");
    EXPECT_EQ(trace.cacheKey()[0], '#');
    EXPECT_EQ(gen.cacheKey()[0], '#');
    EXPECT_NE(trace.cacheKey(), gen.cacheKey());
}

TEST(WorkloadKey, TraceKeyIsContentAddressedNotNameAddressed)
{
    const std::string text = "ld 0x1000\nst 0x2000\nld 0x1040\n";
    auto a = parseOrDie(text, "a.trace");
    auto b = parseOrDie(text, "some/other/b.trace");
    EXPECT_EQ(a->contentHash, b->contentHash);
    EXPECT_EQ(makeTraceWorkload(a).cacheKey(),
              makeTraceWorkload(b).cacheKey());

    // Repacking through the binary encoding keeps the identity too.
    TraceData packed;
    std::string err;
    ASSERT_TRUE(unpackTrace(packTrace(*a), "a.bwtr", packed, err)) << err;
    EXPECT_EQ(packed.contentHash, a->contentHash);

    // Different records do change the key.
    auto c = parseOrDie("ld 0x1000\nst 0x2000\nld 0x1080\n");
    EXPECT_NE(makeTraceWorkload(a).cacheKey(),
              makeTraceWorkload(c).cacheKey());
    // A store is not a load at the same address.
    auto d = parseOrDie("st 0x1000\n");
    auto e = parseOrDie("ld 0x1000\n");
    EXPECT_NE(d->contentHash, e->contentHash);
    // A CTA tag changes identity even with equal addresses.
    auto f = parseOrDie("ld 0x1000 0\n");
    EXPECT_NE(e->contentHash, f->contentHash);
}

TEST(WorkloadKey, GeneratorKeyCoversParametersAndShape)
{
    EXPECT_NE(generatorSpec("pchase:8k").cacheKey(),
              generatorSpec("pchase:64k").cacheKey());
    EXPECT_NE(generatorSpec("pchase:8k:2000").cacheKey(),
              generatorSpec("pchase:8k:4000").cacheKey());
    EXPECT_NE(generatorSpec("stride:128").cacheKey(),
              generatorSpec("stride:256").cacheKey());
    EXPECT_NE(generatorSpec("pchase").cacheKey(),
              generatorSpec("stride").cacheKey());
    // Defaults are spelled out: "pchase" and "pchase:8k:2000" are the
    // same workload and must share one cache entry.
    EXPECT_EQ(generatorSpec("pchase").cacheKey(),
              generatorSpec("pchase:8k:2000").cacheKey());
}

// ---------------------------------------------------------------------
// 2. Text parser: accepted forms and hardened rejections.
// ---------------------------------------------------------------------

TEST(TraceParser, AcceptsAllDocumentedForms)
{
    auto t = parseOrDie("# header comment\n"
                        "ld 0x1000\n"
                        "load 4096\n"    // decimal, alias
                        "r 0x1040\n"     // gem5-style alias
                        "st 0x2000\n"
                        "store 0x2040\n"
                        "w 0x2080\n"
                        "\n"             // blank line
                        "  ld 0x3000  \n");
    ASSERT_EQ(t->records.size(), 7u);
    EXPECT_EQ(t->records[0].op, Op::Load);
    EXPECT_EQ(t->records[1].addr, 4096u);
    EXPECT_EQ(t->records[3].op, Op::Store);
    EXPECT_FALSE(t->ctaTagged);
    for (const auto &r : t->records)
        EXPECT_EQ(r.cta, -1);
}

TEST(TraceParser, AcceptsCrlfAndCtaTags)
{
    auto t = parseOrDie("ld 0x1000 0\r\nst 0x2000 1\r\nld 0x3000 1\r\n");
    ASSERT_EQ(t->records.size(), 3u);
    EXPECT_TRUE(t->ctaTagged);
    EXPECT_EQ(t->records[0].cta, 0);
    EXPECT_EQ(t->records[2].cta, 1);
}

TEST(TraceParser, RejectsMalformedInputWithLineDiagnostics)
{
    EXPECT_NE(parseError("ld 0x1000\nfetch 0x2000\n").find("bad.trace:2"),
              std::string::npos);
    EXPECT_NE(parseError("ld zzz\n").find("bad.trace:1"),
              std::string::npos);
    EXPECT_NE(parseError("ld\n").find(":1"), std::string::npos);
    // Trailing garbage after the address is not silently dropped.
    EXPECT_FALSE(parseError("ld 0x1000 2 extra\n").empty());
    // Tag on some lines but not others is ambiguous, not "mostly ok".
    EXPECT_NE(parseError("ld 0x1000 0\nld 0x2000\n").find("tag"),
              std::string::npos);
    // Empty trace (only comments) cannot run.
    EXPECT_FALSE(parseError("# nothing here\n\n").empty());
    // Oversized lines are bounded, not buffered.
    const std::string long_line =
        "ld 0x1000 " + std::string(2 * traceMaxLineBytes, ' ') + "\n";
    EXPECT_FALSE(parseError(long_line).empty());
}

TEST(TraceParser, BinaryEnvelopeRejectsTruncationAndCorruption)
{
    auto t = busyTrace();
    const std::string packed = packTrace(*t);
    TraceData back;
    std::string err;
    ASSERT_TRUE(unpackTrace(packed, "busy.bwtr", back, err)) << err;
    EXPECT_EQ(back.records.size(), t->records.size());
    EXPECT_EQ(back.contentHash, t->contentHash);

    for (std::size_t cut : {std::size_t(1), packed.size() / 2,
                            packed.size() - 1}) {
        TraceData junk;
        EXPECT_FALSE(
            unpackTrace(packed.substr(0, cut), "cut.bwtr", junk, err))
            << "accepted a truncation at " << cut;
    }
    std::string flipped = packed;
    flipped[packed.size() / 2] ^= 0x20;
    TraceData junk;
    EXPECT_FALSE(unpackTrace(flipped, "flip.bwtr", junk, err));
}

// ---------------------------------------------------------------------
// 3. Replay and generator execution semantics.
// ---------------------------------------------------------------------

TEST(TraceReplay, SchedulerModesAreByteIdentical)
{
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    auto dump = [&](SchedulerMode m) {
        ScopedSchedulerMode scope(m);
        Gpu gpu(GpuConfig::baseline(), spec);
        gpu.run();
        std::ostringstream os;
        gpu.dumpStats(os);
        return os.str();
    };
    EXPECT_EQ(dump(SchedulerMode::Lockstep), dump(SchedulerMode::Skip));
}

TEST(TraceReplay, EveryRecordIssuesExactlyOnce)
{
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    Gpu gpu(GpuConfig::baseline(), spec);
    SimResult r = gpu.run();
    EXPECT_EQ(r.warpInstsIssued, busyTrace()->records.size());
    EXPECT_FALSE(r.timedOut);
}

TEST(TraceReplay, TaggedTraceRunsOneCtaPerTag)
{
    auto t = parseOrDie("ld 0x1000 0\nld 0x2000 1\nld 0x3000 2\n"
                        "st 0x4000 2\n");
    const WorkloadSpec spec = makeTraceWorkload(t);
    EXPECT_EQ(spec.profile.numCtas, 3);
    Gpu gpu(GpuConfig::baseline(), spec);
    SimResult r = gpu.run();
    EXPECT_EQ(r.warpInstsIssued, 4u);
}

TEST(Generators, ParseRejectsUnknownNamesQuietly)
{
    // Unknown names are not generator forms -- the caller falls back
    // to the suite lookup (and its "unknown benchmark" diagnostic).
    WorkloadSpec out;
    EXPECT_FALSE(parseGeneratorForm("bfs", out));
    EXPECT_FALSE(parseGeneratorForm("", out));
    EXPECT_FALSE(parseGeneratorForm("pchaser:8k", out));
}

TEST(Generators, ParseAcceptsTheLargestInstructionCount)
{
    // Parse only: a spec builds its cursors lazily, so this
    // allocates nothing for the two billion instructions.
    const WorkloadSpec s = generatorSpec("pchase:8k:2147483647");
    EXPECT_EQ(s.gen.insts, 2147483647);
    EXPECT_EQ(s.gen.regionBytes, 8u * 1024);
}

TEST(GeneratorsDeathTest, ParseRejectsOverflowingParameters)
{
    // 3e9 and 2^32 + 1 instructions do not fit an int, the 20-digit
    // sizes overflow 64 bits while the digits accumulate, and 2^34 g
    // is 2^64 bytes, which the suffix multiply would wrap to 0.
    const std::pair<const char *, const char *> cases[] = {
        {"pchase:8k:3000000000", "malformed pchase insts"},
        {"pchase:8k:4294967297", "malformed pchase insts"},
        {"pchase:99999999999999999999", "malformed pchase region"},
        {"pchase:17179869184g", "malformed pchase region"},
        {"stride:128:99999999999999999999", "malformed stride region"},
    };
    for (const auto &[form, message] : cases) {
        WorkloadSpec out;
        EXPECT_EXIT(parseGeneratorForm(form, out),
                    ::testing::ExitedWithCode(1), message)
            << form;
    }
}

TEST(Generators, LaunchShapesFitEveryCoreBudget)
{
    const WorkloadSpec pchase = generatorSpec("pchase");
    EXPECT_EQ(pchase.profile.numCtas, 1);
    EXPECT_EQ(pchase.profile.warpsPerCta, 1);
    const WorkloadSpec stride = generatorSpec("stride");
    EXPECT_GT(stride.profile.numCtas * stride.profile.warpsPerCta, 100);
}

// ---------------------------------------------------------------------
// 4. Parameter recovery: the generators measure back the configured
//    hierarchy. Expected values derive from GpuConfig::baseline():
//    16 KB L1 (1-cycle hits), 768 KB L2 (4 L2-cycles), 128 B lines.
// ---------------------------------------------------------------------

TEST(ParamRecovery, PointerChaseWalksUpTheLatencyHierarchy)
{
    const GpuConfig cfg = GpuConfig::baseline();

    // 8 KB chain: resident in the 16 KB L1 after one cold pass.
    SimResult l1 = runOne(generatorSpec("pchase:8k:4000"), cfg);
    EXPECT_LT(l1.l1MissRate, 0.05); // 64 cold lines / 4000 loads
    const double l1_cpi = 1.0 / l1.ipc;
    EXPECT_LT(l1_cpi, 20.0); // a few cycles per dependent L1 hit

    // 64 KB chain: spills L1, resident in the 768 KB L2.
    SimResult l2 = runOne(generatorSpec("pchase:64k:4000"), cfg);
    EXPECT_GT(l2.l1MissRate, 0.95);
    EXPECT_LT(l2.l2MissRate, 0.2); // 512 cold lines / 4000 loads
    const double l2_cpi = 1.0 / l2.ipc;

    // 8 MB chain: spills both caches; every load is a DRAM round trip.
    SimResult dram = runOne(generatorSpec("pchase:8m:4000"), cfg);
    EXPECT_GT(dram.l2MissRate, 0.95);
    const double dram_cpi = 1.0 / dram.ipc;

    // The ladder is strict and well separated: each level costs
    // multiples of the one above (measured ~5.5 / ~149 / ~246).
    EXPECT_GT(l2_cpi, 5 * l1_cpi);
    EXPECT_GT(dram_cpi, l2_cpi + 50);

    // AML averages L1-miss round trips, so the L2- and DRAM-resident
    // probes read the two upper levels directly.
    EXPECT_GT(l2.aml, 100.0);
    EXPECT_LT(l2.aml, 200.0);
    EXPECT_GT(dram.aml, l2.aml + 50);
    EXPECT_LT(dram.aml, 400.0);
}

TEST(ParamRecovery, PointerChaseSeesConfiguredLatencyDeltas)
{
    const GpuConfig base = GpuConfig::baseline();

    // +10 cycles of L1 hit latency: every chained load pays exactly
    // once, so cycles-per-load grows by ~10.
    GpuConfig l1slow = base;
    l1slow.l1dHitLatency += 10;
    const WorkloadSpec probe = generatorSpec("pchase:8k:4000");
    const double d_cpi =
        1.0 / runOne(probe, l1slow).ipc - 1.0 / runOne(probe, base).ipc;
    EXPECT_GT(d_cpi, 8.0);
    EXPECT_LT(d_cpi, 12.0);

    // +100 L2 cycles of L2 hit latency: the L2 clock runs at half the
    // core clock, so the L2-resident probe's AML (in core cycles)
    // grows by exactly 200.
    GpuConfig l2slow = base;
    l2slow.l2HitLatency += 100;
    const WorkloadSpec probe2 = generatorSpec("pchase:64k:4000");
    const double d_aml =
        runOne(probe2, l2slow).aml - runOne(probe2, base).aml;
    EXPECT_GT(d_aml, 195.0);
    EXPECT_LT(d_aml, 205.0);
}

TEST(ParamRecovery, StrideSweepSaturatesAndScalesWithTheDramBus)
{
    // On a narrow 8 B/cycle bus the default sweep is bus-bound: the
    // measured L2<->DRAM bandwidth pins the configured peak
    // (measured ~90% of it; the last few % are refresh and turnaround).
    GpuConfig narrow = GpuConfig::baseline();
    narrow.dramBusBytesPerCycle = 8;
    SimResult r = runOne(generatorSpec("stride"), narrow);
    EXPECT_GT(r.l2DramUtil, 0.8);
    EXPECT_LE(r.l2DramUtil, 1.0);

    // The baseline 32 B/cycle bus is not the bottleneck for the same
    // sweep -- utilization drops well below saturation while absolute
    // bandwidth grows.
    SimResult wide = runOne(generatorSpec("stride"), GpuConfig::baseline());
    EXPECT_LT(wide.l2DramUtil, 0.5);
    EXPECT_GT(wide.l2DramBpc, r.l2DramBpc);
}

TEST(ParamRecovery, StrideSweepReadsRowBufferLocality)
{
    const GpuConfig cfg = GpuConfig::baseline();
    // Sequential 128 B strides stream through each DRAM row.
    SimResult seq = runOne(generatorSpec("stride:128:64m"), cfg);
    EXPECT_GT(seq.dramRowHitRate, 0.9);
    // 8 KB strides leave a row before ever reusing it.
    SimResult jump = runOne(generatorSpec("stride:8k:256m"), cfg);
    EXPECT_LT(jump.dramRowHitRate, 0.05);
}
