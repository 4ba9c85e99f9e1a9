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

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/dse.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/generators.hh"
#include "workloads/profile.hh"
#include "workloads/trace_gen.hh"
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
                        "  ld 0x3000  \n"
                        "ld 010\n"       // leading 0: octal
                        "ld 0X1f\n");    // either case of 0x
    ASSERT_EQ(t->records.size(), 9u);
    EXPECT_EQ(t->records[0].op, Op::Load);
    EXPECT_EQ(t->records[1].addr, 4096u);
    EXPECT_EQ(t->records[3].op, Op::Store);
    EXPECT_EQ(t->records[7].addr, 8u);
    EXPECT_EQ(t->records[8].addr, 0x1fu);
    EXPECT_FALSE(t->ctaTagged);
    EXPECT_TRUE(t->byCta.empty());
    for (const auto &r : t->records)
        EXPECT_EQ(r.cta, -1);

    // The README's example, verbatim.
    auto readme = parseOrDie(
        "# type address [cta]  (blank lines and '#' lines are skipped)\n"
        "ld 0x1000 0\n"
        "st 0x2000 0\n"
        "load 4096 1\n"
        "w 0x2040 1\n");
    ASSERT_EQ(readme->records.size(), 4u);
    EXPECT_TRUE(readme->ctaTagged);
    EXPECT_EQ(readme->records[1].op, Op::Store);
    EXPECT_EQ(readme->records[2].addr, 4096u);
    EXPECT_EQ(readme->records[3].cta, 1);
    EXPECT_EQ(makeTraceWorkload(readme).profile.numCtas, 2);
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
    // The read stops at the limit, however long the line runs.
    std::istringstream huge("ld " + std::string(1 << 20, ' ') + "\n");
    TraceData unused;
    std::string err;
    EXPECT_FALSE(parseTextTrace(huge, "huge.trace", unused, err));
    EXPECT_EQ(err, "huge.trace:1: line exceeds 512 bytes");
    huge.clear();
    EXPECT_LE(huge.tellg(),
              static_cast<std::streamoff>(traceMaxLineBytes + 2));

    // Fields are unsigned: strtoull would negate and wrap "-1", and
    // read "+3" as 3.
    EXPECT_EQ(parseError("ld 0x10\nld -1\n"),
              "bad.trace:2: malformed address '-1'");
    EXPECT_EQ(parseError("ld 0x10 +3\n"),
              "bad.trace:1: malformed CTA tag '+3'");
    // A NUL ends no field early.
    EXPECT_EQ(parseError(std::string("ld 0x1000\0junk\n", 15)),
              "bad.trace:1: malformed address '0x1000\\0junk'");
    EXPECT_EQ(parseError(std::string("ld 0x1000 3\0\n", 13)),
              "bad.trace:1: malformed CTA tag '3\\0'");
    // maxTag + 1 CTAs must fit an int.
    EXPECT_EQ(parseError("ld 0x10 2147483647\n"),
              "bad.trace:1: malformed CTA tag '2147483647'");
    EXPECT_EQ(parseError("ld 0x10 0\nld 0x20 0x7fffffff\n"),
              "bad.trace:2: malformed CTA tag '0x7fffffff'");
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

TEST(TraceParser, LargePackedFileLoadsFromOneReadWithItsHash)
{
    // 10,007 tagged records: sealTrace() hashes the canonical bytes
    // 4,096 records at a time, ending on a partial slice, and the
    // 130 KB packed file overflows readFileBytes()' first 4 KiB chunk.
    TraceData t;
    t.ctaTagged = true;
    Rng rng(31);
    for (int i = 0; i < 10007; ++i) {
        TraceRecord r;
        r.op = rng.chance(0.3) ? Op::Store : Op::Load;
        r.addr = rng.next();
        r.cta = static_cast<std::int32_t>(rng.below(97));
        t.records.push_back(r);
    }
    sealTrace(t);
    EXPECT_EQ(t.contentHash, fnv1a64(canonicalTraceBytes(t)));

    const std::string path = ::testing::TempDir() + "bwsim-large.bwtr";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        const std::string bytes = packTrace(t);
        f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::string err;
    const auto back = loadTraceFile(path, err);
    std::remove(path.c_str());
    ASSERT_NE(back, nullptr) << err;
    EXPECT_EQ(back->contentHash, t.contentHash);
    EXPECT_EQ(back->byCta, t.byCta);
    ASSERT_EQ(back->records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        EXPECT_EQ(back->records[i].op, t.records[i].op) << i;
        EXPECT_EQ(back->records[i].addr, t.records[i].addr) << i;
        EXPECT_EQ(back->records[i].cta, t.records[i].cta) << i;
    }
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

TEST(TraceReplay, LargestTagIndexesInRecordsNotInTags)
{
    // One record tagged 2147483646: a table indexed by tag would take
    // gigabytes here. The launch has 2^31 - 1 CTAs, so this test only
    // builds cursors and never simulates it.
    auto t = parseOrDie("st 0x1000 2147483646\n");
    EXPECT_EQ(t->byCta.size(), 1u);
    EXPECT_LE(t->byCta.capacity(), t->records.size());
    const WorkloadSpec spec = makeTraceWorkload(t);
    ASSERT_EQ(spec.profile.numCtas, 2147483647);

    WarpInstData inst;
    TraceReplayCursor last(t, spec.profile.numCtas, 4, 2147483646, 0, 128);
    ASSERT_TRUE(last.next(inst));
    EXPECT_EQ(inst.op, Op::Store);
    EXPECT_TRUE(last.done());
    TraceReplayCursor first(t, spec.profile.numCtas, 4, 0, 0, 128);
    EXPECT_TRUE(first.done());
}

// ---------------------------------------------------------------------
// Differential checks: the indexed cursor and the in-place parser
// against the scanning cursor and istringstream parser they replaced,
// kept here verbatim in behaviour as references.
// ---------------------------------------------------------------------

namespace
{

/** What one replayed instruction carries into the core. */
struct Replayed
{
    Op op;
    Addr line;
    int dest;
    Addr pc;

    bool
    operator==(const Replayed &o) const
    {
        return op == o.op && line == o.line && dest == o.dest &&
               pc == o.pc;
    }
};

/**
 * Reference replay: each cursor scans every record from index 0 for
 * the ones its warp owns -- the k-th record of its CTA for k equal to
 * its warp modulo warpsPerCta (tagged), or every totalWarps-th record
 * (untagged).
 */
std::vector<Replayed>
scanReplay(const TraceData &t, int num_ctas, int warps_per_cta,
           std::uint64_t cta_seq, int warp_in_cta, std::uint32_t line)
{
    const std::uint64_t global_warp = cta_seq * warps_per_cta + warp_in_cta;
    const std::uint64_t total_warps =
        static_cast<std::uint64_t>(num_ctas) * warps_per_cta;
    std::uint64_t tag_matches = 0, inst_seq = 0;
    std::vector<Replayed> out;
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        bool mine;
        if (t.ctaTagged) {
            if (t.records[i].cta != static_cast<std::int32_t>(cta_seq))
                continue;
            mine = tag_matches % warps_per_cta ==
                   static_cast<std::uint64_t>(warp_in_cta);
            ++tag_matches;
        } else {
            mine = i % total_warps == global_warp;
        }
        if (!mine)
            continue;
        const TraceRecord &rec = t.records[i];
        out.push_back(
            {rec.op, rec.addr & ~static_cast<Addr>(line - 1),
             rec.op == Op::Load
                 ? 1 + static_cast<int>(inst_seq % (numModelRegs - 1))
                 : -1,
             wl_layout::codeBase + (inst_seq % 64) * wl_layout::instBytes});
        ++inst_seq;
    }
    return out;
}

std::vector<Replayed>
cursorReplay(const std::shared_ptr<const TraceData> &t, int num_ctas,
             int warps_per_cta, std::uint64_t cta_seq, int warp_in_cta,
             std::uint32_t line)
{
    TraceReplayCursor cursor(t, num_ctas, warps_per_cta, cta_seq,
                             warp_in_cta, line);
    std::vector<Replayed> out;
    WarpInstData inst;
    while (!cursor.done()) {
        const Addr pc = cursor.nextPc();
        EXPECT_TRUE(cursor.next(inst));
        EXPECT_EQ(inst.pc, pc);
        EXPECT_EQ(inst.lineAddrs.size(), 1u);
        out.push_back({inst.op, inst.lineAddrs.at(0), inst.dest, inst.pc});
    }
    EXPECT_FALSE(cursor.next(inst));
    return out;
}

/**
 * A seeded trace of @p records records. Tagged traces draw their tags
 * from a dense range or, with @p gaps, from a sparse set, so that
 * some CTAs below the largest tag own no record. Half the tagged
 * traces are then grouped by CTA; the rest stay interleaved.
 */
std::shared_ptr<TraceData>
randomReplayTrace(Rng &rng, std::size_t records, bool tagged, bool gaps)
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "differential";
    t->ctaTagged = tagged;
    std::vector<std::int32_t> tags;
    const int ctas = 1 + static_cast<int>(rng.below(40));
    for (int c = 0; c < ctas; ++c)
        if (!gaps || rng.chance(0.4))
            tags.push_back(gaps ? c * 3 + static_cast<int>(rng.below(3))
                                : c);
    if (tags.empty())
        tags.push_back(static_cast<std::int32_t>(rng.below(100)));
    for (std::size_t i = 0; i < records; ++i) {
        TraceRecord r;
        r.op = rng.chance(0.3) ? Op::Store : Op::Load;
        r.addr = rng.next() >> rng.below(64);
        if (tagged)
            r.cta = tags[rng.below(tags.size())];
        t->records.push_back(r);
    }
    if (tagged && rng.chance(0.5))
        std::stable_sort(t->records.begin(), t->records.end(),
                         [](const TraceRecord &a, const TraceRecord &b) {
                             return a.cta < b.cta;
                         });
    sealTrace(*t);
    return t;
}

} // namespace

TEST(TraceReplayDifferential, EveryCursorMatchesTheScanningReference)
{
    std::size_t tagged_traces = 0, gapped_traces = 0, empty_ctas = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Rng rng(Rng::mixSeed(seed, 0x7e57));
        const std::size_t records =
            seed <= 2 ? seed : seed <= 4 ? 5000 : 1 + rng.below(5000);
        const int kind = static_cast<int>(seed % 3); // untagged/dense/gaps
        auto t = randomReplayTrace(rng, records, kind != 0, kind == 2);
        int num_ctas = 1 + static_cast<int>(rng.below(8));
        if (t->ctaTagged) {
            std::int32_t max_tag = 0;
            for (const auto &r : t->records)
                max_tag = std::max(max_tag, r.cta);
            num_ctas = makeTraceWorkload(t).profile.numCtas;
            ASSERT_EQ(num_ctas, max_tag + 1) << "seed " << seed;
            ++tagged_traces;
            gapped_traces += kind == 2;
        }
        const int warps_per_cta = 1 + static_cast<int>(rng.below(6));
        const std::uint32_t line = 32u << rng.below(3);

        std::size_t replayed = 0;
        for (int cta = 0; cta < num_ctas; ++cta) {
            std::size_t cta_records = 0;
            for (int w = 0; w < warps_per_cta; ++w) {
                const auto want =
                    scanReplay(*t, num_ctas, warps_per_cta, cta, w, line);
                const auto got =
                    cursorReplay(t, num_ctas, warps_per_cta, cta, w, line);
                ASSERT_TRUE(got == want)
                    << "seed " << seed << " cta " << cta << " warp " << w
                    << ": " << got.size() << " vs " << want.size()
                    << " instructions";
                cta_records += got.size();
            }
            replayed += cta_records;
            empty_ctas += t->ctaTagged && cta_records == 0;
        }
        EXPECT_EQ(replayed, t->records.size()) << "seed " << seed;
    }
    EXPECT_EQ(tagged_traces, 40u);
    EXPECT_EQ(gapped_traces, 20u);
    EXPECT_GT(empty_ctas, 0u); // the gaps were exercised
}

TEST(TraceReplayDifferential, IndexSortsTagsOfEveryWidthStably)
{
    // Tags spread over all four bytes, so every radix pass matters;
    // too sparse to replay every CTA, so the cursors checked are each
    // tag's and its neighbours'.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(Rng::mixSeed(seed, 0x51de));
        std::vector<std::int32_t> tags(1 + rng.below(30));
        for (auto &tag : tags)
            tag = static_cast<std::int32_t>(
                rng.below(traceMaxCtaTag + 1ull) >> rng.below(31));
        auto t = std::make_shared<TraceData>();
        t->ctaTagged = true;
        const std::size_t records = 1 + rng.below(3000);
        for (std::size_t i = 0; i < records; ++i) {
            TraceRecord r;
            r.op = rng.chance(0.3) ? Op::Store : Op::Load;
            r.addr = rng.next();
            r.cta = tags[rng.below(tags.size())];
            t->records.push_back(r);
        }
        sealTrace(*t);

        std::vector<std::uint32_t> want(records);
        std::iota(want.begin(), want.end(), 0u);
        std::stable_sort(want.begin(), want.end(),
                         [&t](std::uint32_t a, std::uint32_t b) {
                             return t->records[a].cta < t->records[b].cta;
                         });
        ASSERT_EQ(t->byCta, want) << "seed " << seed;

        const int num_ctas = makeTraceWorkload(t).profile.numCtas;
        EXPECT_EQ(num_ctas, t->records[want.back()].cta + 1);
        for (const std::int32_t tag : tags) {
            for (std::int64_t cta = tag - 1; cta <= tag + 1; ++cta) {
                if (cta < 0 || cta >= num_ctas)
                    continue;
                for (int w = 0; w < 4; ++w)
                    ASSERT_TRUE(cursorReplay(t, num_ctas, 4, cta, w, 128) ==
                                scanReplay(*t, num_ctas, 4, cta, w, 128))
                        << "seed " << seed << " cta " << cta << " warp " << w;
            }
        }
    }
}

namespace
{

/**
 * Reference parser: the istringstream tokenizer and strtoull number
 * rule the in-place parser replaced. It hashes like sealTrace() but
 * builds no index, since it accepts tags no index may hold.
 */
bool
streamParseTrace(const std::string &text, TraceData &out,
                 std::string &err)
{
    const std::string name = "bad.trace";
    std::istringstream in(text);
    out = TraceData();
    out.sourceName = name;
    bool saw_tagged = false, saw_untagged = false;

    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.size() > traceMaxLineBytes) {
            err = csprintf("%s:%zu: line exceeds %zu bytes", name.c_str(),
                           lineno, traceMaxLineBytes);
            return false;
        }
        std::istringstream toks(line);
        std::string type_tok;
        if (!(toks >> type_tok) || type_tok[0] == '#')
            continue;

        TraceRecord rec;
        if (type_tok == "ld" || type_tok == "load" || type_tok == "r") {
            rec.op = Op::Load;
        } else if (type_tok == "st" || type_tok == "store" ||
                   type_tok == "w") {
            rec.op = Op::Store;
        } else {
            err = csprintf("%s:%zu: unknown access type '%s' "
                           "(expected ld/load/r or st/store/w)",
                           name.c_str(), lineno, type_tok.c_str());
            return false;
        }

        std::string addr_tok;
        if (!(toks >> addr_tok)) {
            err = csprintf("%s:%zu: missing address", name.c_str(),
                           lineno);
            return false;
        }
        char *end = nullptr;
        errno = 0;
        rec.addr = std::strtoull(addr_tok.c_str(), &end, 0);
        if (errno != 0 || end == addr_tok.c_str() || *end != '\0') {
            err = csprintf("%s:%zu: malformed address '%s'",
                           name.c_str(), lineno, addr_tok.c_str());
            return false;
        }

        std::string cta_tok;
        if (toks >> cta_tok) {
            errno = 0;
            const unsigned long long tag =
                std::strtoull(cta_tok.c_str(), &end, 0);
            if (errno != 0 || end == cta_tok.c_str() || *end != '\0' ||
                tag > 0x7fffffffull) {
                err = csprintf("%s:%zu: malformed CTA tag '%s'",
                               name.c_str(), lineno, cta_tok.c_str());
                return false;
            }
            rec.cta = static_cast<std::int32_t>(tag);
            saw_tagged = true;
        } else {
            saw_untagged = true;
        }

        std::string extra;
        if (toks >> extra) {
            err = csprintf("%s:%zu: trailing garbage '%s'",
                           name.c_str(), lineno, extra.c_str());
            return false;
        }
        out.records.push_back(rec);
    }

    if (out.records.empty()) {
        err = csprintf("%s: trace contains no records", name.c_str());
        return false;
    }
    if (saw_tagged && saw_untagged) {
        err = csprintf("%s: mixes CTA-tagged and untagged records",
                       name.c_str());
        return false;
    }
    out.ctaTagged = saw_tagged;
    out.contentHash = fnv1a64(canonicalTraceBytes(out));
    return true;
}

/** A field and how a diagnostic shows it (NUL bytes as \0). */
struct Field
{
    std::string text;
    std::string shown;
};

Field
plain(const std::string &s)
{
    return {s, s};
}

std::string
pick(Rng &rng, const std::vector<std::string> &pool)
{
    return pool[rng.below(pool.size())];
}

/** 1-3 separators; '\n' (which splits the line) only if @p newline. */
std::string
separators(Rng &rng, bool newline = true)
{
    static const std::string seps = " \t\v\f\r\n";
    std::string out;
    const std::size_t n = 1 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i)
        out += seps[rng.below(seps.size() - (newline ? 0 : 1))];
    return out;
}

std::string
maybeSeparators(Rng &rng, bool newline = true)
{
    return rng.chance(0.5) ? separators(rng, newline) : "";
}

/** @p v spelled in hex (either case), octal or decimal. */
std::string
spelled(Rng &rng, std::uint64_t v)
{
    const auto u = static_cast<unsigned long long>(v);
    switch (rng.below(4)) {
    case 0:
        return csprintf("0x%llx", u);
    case 1:
        return csprintf("0X%llX", u);
    case 2:
        return csprintf("0%llo", u);
    default:
        return csprintf("%llu", u);
    }
}

const std::vector<std::string> kLoadStore = {"ld", "load", "r",
                                             "st", "store", "w"};

std::string
validTag(Rng &rng)
{
    if (rng.chance(0.05))
        return spelled(rng, 2147483646 - rng.below(2));
    return spelled(rng, rng.below(64));
}

/** A well-formed record line, without its line ending. */
std::string
validRecord(Rng &rng, bool tagged)
{
    std::string line = maybeSeparators(rng) + pick(rng, kLoadStore) +
                       separators(rng, false) +
                       spelled(rng, rng.next() >> rng.below(64));
    if (tagged)
        line += separators(rng, false) + validTag(rng);
    return line + maybeSeparators(rng);
}

/** A line both parsers reject, without its line ending. */
std::string
malformedLine(Rng &rng, bool tagged)
{
    const std::string type = pick(rng, kLoadStore);
    const std::string addr = spelled(rng, rng.below(1u << 20));
    switch (rng.below(6)) {
    case 0:
        return pick(rng, {"LD", "fetch", "ldr", "x", "Store", "w1"}) +
               " " + addr;
    case 1:
        return type + maybeSeparators(rng, false);
    case 2:
        return type + " " +
               pick(rng, {"zzz", "0x", "0xg1", "08", "0779", "1x",
                          "18446744073709551616", "0x10000000000000000",
                          "02000000000000000000000", "#", "1.5", "0b101",
                          "-", "+", "-18446744073709551616", "0x-5",
                          "--1"});
    case 3:
        return type + " " + addr + " " +
               pick(rng, {"x", "2147483648", "0x80000000", "4294967296",
                          "-1", "-2147483647", "99999999999999999999",
                          "#", "1,", "08"});
    case 4:
        return type + " " + addr + (tagged ? " 1" : "") + " " +
               pick(rng, {"extra", "0", "#", "# trailing comment"});
    default:
        return validRecord(rng, tagged) + " # load";
    }
}

/**
 * A line the stream parser accepted and the in-place parser rejects:
 * a signed field, a NUL inside a number, or tag 2147483647. Fills
 * @p message with the diagnostic for line @p lineno.
 */
std::string
newlyRejectedLine(Rng &rng, std::size_t lineno, std::string &message)
{
    static const std::vector<Field> addrs = {
        plain("-1"), plain("+16"), plain("-0x10"), plain("+0"),
        plain("-0"), plain("-18446744073709551615"),
        {std::string("0x1000\0junk", 11), "0x1000\\0junk"},
        {std::string("4096\0", 5), "4096\\0"}};
    static const std::vector<Field> tags = {
        plain("+3"), plain("+0x10"), plain("-0"), plain("2147483647"),
        plain("0x7fffffff"), plain("017777777777"),
        {std::string("5\0x", 3), "5\\0x"}};
    std::string line = maybeSeparators(rng, false) +
                       pick(rng, kLoadStore) + separators(rng, false);
    if (rng.chance(0.5)) {
        const Field &f = addrs[rng.below(addrs.size())];
        line += f.text;
        message = csprintf("bad.trace:%zu: malformed address '%s'", lineno,
                           f.shown.c_str());
    } else {
        const Field &f = tags[rng.below(tags.size())];
        line += spelled(rng, rng.below(1u << 20)) + separators(rng, false) +
                f.text;
        message = csprintf("bad.trace:%zu: malformed CTA tag '%s'", lineno,
                           f.shown.c_str());
    }
    return line + maybeSeparators(rng, false);
}

/** A blank, comment or over-long line, without its line ending. */
std::string
fillerLine(Rng &rng, bool tagged)
{
    switch (rng.below(3)) {
    case 0:
        return maybeSeparators(rng);
    case 1: {
        std::string c = maybeSeparators(rng, false) + "#";
        const std::size_t n = rng.below(40);
        for (std::size_t i = 0; i < n; ++i)
            c += static_cast<char>(rng.chance(0.05) ? 0
                                                    : 32 + rng.below(95));
        return c;
    }
    default: {
        // Around the length limit, padded with separators.
        std::string l = validRecord(rng, tagged);
        const std::size_t want =
            traceMaxLineBytes - 1 + rng.below(3) +
            (rng.chance(0.3) ? 100 : 0);
        while (l.size() < want)
            l += " \t\v\f"[rng.below(4)];
        return l;
    }
    }
}

bool
namesALine(const std::string &err)
{
    const std::string prefix = "bad.trace:";
    return err.rfind(prefix, 0) == 0 && err.size() > prefix.size() &&
           isdigit(static_cast<unsigned char>(err[prefix.size()]));
}

} // namespace

TEST(TraceParserDifferential, MatchesTheStreamParserOnRandomLines)
{
    std::size_t accepted = 0, rejected = 0, newly_rejected = 0;
    for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
        Rng rng(Rng::mixSeed(seed, 0x9a75e));
        // Half the files hold only records, blanks and comments, so
        // that many are accepted and their records compared.
        const bool clean = rng.chance(0.5);
        const bool tagged = rng.chance(0.5);
        const std::size_t lines = rng.below(16);
        std::string text, message, prefix;
        for (std::size_t i = 0; i < lines; ++i) {
            const std::size_t lineno =
                1 + static_cast<std::size_t>(
                        std::count(text.begin(), text.end(), '\n'));
            const std::uint64_t roll = rng.below(100);
            std::string line;
            if (roll < 15) {
                line = fillerLine(rng, tagged);
                if (clean && line.size() > traceMaxLineBytes)
                    line = "#";
            } else if (clean || roll >= 35) {
                line = validRecord(rng, tagged != (!clean && roll < 38));
            } else if (roll < 27) {
                line = malformedLine(rng, tagged);
            } else {
                std::string m;
                if (message.empty())
                    prefix = text;
                line = newlyRejectedLine(rng, lineno, m);
                if (message.empty())
                    message = m;
            }
            text += line;
            if (i + 1 < lines || rng.chance(0.7))
                text += rng.chance(0.25) ? "\r\n" : "\n";
        }

        TraceData want, got_data;
        std::string want_err, got_err;
        std::istringstream in(text);
        const bool got = parseTextTrace(in, "bad.trace", got_data, got_err);
        if (!message.empty()) {
            // Up to the newly rejected line the parsers must agree.
            ++newly_rejected;
            if (!streamParseTrace(prefix, want, want_err) &&
                namesALine(want_err))
                message = want_err;
            EXPECT_FALSE(got) << "seed " << seed;
            EXPECT_EQ(got_err, message) << "seed " << seed;
            continue;
        }
        const bool ok = streamParseTrace(text, want, want_err);
        ASSERT_EQ(got, ok) << "seed " << seed << ": " << got_err << " / "
                           << want_err;
        if (!ok) {
            ++rejected;
            EXPECT_EQ(got_err, want_err) << "seed " << seed;
            continue;
        }
        ++accepted;
        EXPECT_EQ(got_data.ctaTagged, want.ctaTagged) << "seed " << seed;
        EXPECT_EQ(got_data.contentHash, want.contentHash) << "seed " << seed;
        ASSERT_EQ(got_data.records.size(), want.records.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < want.records.size(); ++i) {
            EXPECT_EQ(got_data.records[i].op, want.records[i].op);
            EXPECT_EQ(got_data.records[i].addr, want.records[i].addr);
            EXPECT_EQ(got_data.records[i].cta, want.records[i].cta);
        }
    }
    // Each outcome is exercised, not just reachable.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 500u);
    EXPECT_GT(newly_rejected, 300u);
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
