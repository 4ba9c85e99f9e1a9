/**
 * @file
 * Property/fuzz tests for every binary format in the system:
 * randomized SimResult / BenchmarkProfile / GpuConfig values must
 * round-trip bit-exactly, and truncated or bit-flipped buffers must
 * be rejected cleanly (never crash, never load garbage) -- for the
 * raw field serializers, the framed envelope, and the work-queue
 * job/reply files. Deterministic seeds keep every run reproducible.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/serdes.hh"
#include "core/work_queue.hh"
#include "gpu/gpu_config.hh"
#include "gpu/sim_result.hh"
#include "workloads/profile.hh"
#include "workloads/workload_spec.hh"

using namespace bwsim;

namespace
{

constexpr int kRounds = 64;

/** Arbitrary bytes, including NULs, newlines and key delimiters. */
std::string
randomString(Rng &rng, std::size_t max_len)
{
    std::string s(rng.below(max_len + 1), '\0');
    for (char &c : s)
        c = static_cast<char>(rng.below(256));
    return s;
}

/** Any bit pattern, NaNs and infinities included. */
double
randomDouble(Rng &rng)
{
    const std::uint64_t bits = rng.next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

int
randomInt(Rng &rng)
{
    return static_cast<int>(rng.next());
}

SimResult
randomResult(Rng &rng)
{
    SimResult r;
    r.benchmark = randomString(rng, 40);
    r.config = randomString(rng, 40);
    r.coreCycles = rng.next();
    r.elapsedPs = randomDouble(rng);
    r.warpInstsIssued = rng.next();
    r.timedOut = rng.chance(0.5);
    r.ipc = randomDouble(rng);
    r.perf = randomDouble(rng);
    r.issueStallFrac = randomDouble(rng);
    r.aml = randomDouble(rng);
    r.l2Ahl = randomDouble(rng);
    for (double &v : r.issueStallDist)
        v = randomDouble(rng);
    for (double &v : r.l2AccessQueueOcc)
        v = randomDouble(rng);
    for (double &v : r.dramQueueOcc)
        v = randomDouble(rng);
    for (double &v : r.l2StallDist)
        v = randomDouble(rng);
    for (double &v : r.l1StallDist)
        v = randomDouble(rng);
    r.l1MissRate = randomDouble(rng);
    r.l2MissRate = randomDouble(rng);
    r.dramEfficiency = randomDouble(rng);
    r.dramRowHitRate = randomDouble(rng);
    r.l1Accesses = rng.next();
    r.l2Accesses = rng.next();
    r.l2ReadHits = rng.next();
    r.l2ReadMisses = rng.next();
    r.l2Merges = rng.next();
    r.dramReads = rng.next();
    r.dramWrites = rng.next();
    r.l1StallCycles = rng.next();
    r.l2StallCycles = rng.next();
    r.l1IcntBytes = rng.next();
    r.icntL2Bytes = rng.next();
    r.l2DramBytes = rng.next();
    r.l1IcntBpc = randomDouble(rng);
    r.icntL2Bpc = randomDouble(rng);
    r.l2DramBpc = randomDouble(rng);
    r.l1IcntUtil = randomDouble(rng);
    r.icntL2Util = randomDouble(rng);
    r.l2DramUtil = randomDouble(rng);
    return r;
}

BenchmarkProfile
randomProfile(Rng &rng)
{
    BenchmarkProfile p;
    p.name = randomString(rng, 24);
    p.suite = randomString(rng, 24);
    p.numCtas = randomInt(rng);
    p.warpsPerCta = randomInt(rng);
    p.maxCtasPerCore = randomInt(rng);
    p.instsPerWarp = randomInt(rng);
    p.memFraction = randomDouble(rng);
    p.storeFraction = randomDouble(rng);
    p.sfuFraction = randomDouble(rng);
    p.ilpDistance = randomInt(rng);
    p.aluLatency = static_cast<std::uint32_t>(rng.next());
    p.sfuLatency = static_cast<std::uint32_t>(rng.next());
    p.minAccessesPerInst = randomInt(rng);
    p.maxAccessesPerInst = randomInt(rng);
    p.pHot = randomDouble(rng);
    p.pTile = randomDouble(rng);
    p.pShared = randomDouble(rng);
    p.pRandom = randomDouble(rng);
    p.hotBytes = rng.next();
    p.tileBytes = rng.next();
    p.tileWindowBytes = rng.next();
    p.tileWindowAdvance = randomInt(rng);
    p.sharedBytes = rng.next();
    p.randomBytes = rng.next();
    p.storeBytes = static_cast<std::uint32_t>(rng.next());
    p.loopInsts = randomInt(rng);
    p.seed = rng.next();
    p.paperPinf = randomDouble(rng);
    p.paperPdram = randomDouble(rng);
    return p;
}

GpuConfig
randomConfig(Rng &rng)
{
    GpuConfig c;
    c.name = randomString(rng, 24);
    c.coreClockMhz = randomDouble(rng);
    c.icntClockMhz = randomDouble(rng);
    c.dramClockMhz = randomDouble(rng);
    c.numCores = randomInt(rng);
    c.maxWarpsPerCore = randomInt(rng);
    c.numSchedulers = randomInt(rng);
    c.ibufferEntries = randomInt(rng);
    c.fetchWidth = randomInt(rng);
    c.memPipelineWidth = randomInt(rng);
    c.aluIssuePerCycle = randomInt(rng);
    c.aluInflightCap = randomInt(rng);
    c.sfuInflightCap = randomInt(rng);
    c.schedPolicy =
        rng.chance(0.5) ? SchedPolicy::Gto : SchedPolicy::Lrr;
    c.l1dSizeBytes = rng.next();
    c.l1dAssoc = static_cast<std::uint32_t>(rng.next());
    c.lineBytes = static_cast<std::uint32_t>(rng.next());
    c.l1dMshrEntries = static_cast<std::uint32_t>(rng.next());
    c.l1dMshrMerge = static_cast<std::uint32_t>(rng.next());
    c.l1dMissQueue = static_cast<std::uint32_t>(rng.next());
    c.l1dHitLatency = static_cast<std::uint32_t>(rng.next());
    c.l1iSizeBytes = rng.next();
    c.l1iAssoc = static_cast<std::uint32_t>(rng.next());
    c.l1iMshrEntries = static_cast<std::uint32_t>(rng.next());
    c.l1iMissQueue = static_cast<std::uint32_t>(rng.next());
    c.reqFlitBytes = static_cast<std::uint32_t>(rng.next());
    c.replyFlitBytes = static_cast<std::uint32_t>(rng.next());
    c.injQueuePackets = static_cast<std::uint32_t>(rng.next());
    c.coreRespFifo = static_cast<std::uint32_t>(rng.next());
    c.reqEjQueuePackets = static_cast<std::uint32_t>(rng.next());
    c.icntTransitLatency = static_cast<std::uint32_t>(rng.next());
    c.numPartitions = static_cast<std::uint32_t>(rng.next());
    c.l2BanksPerPartition = static_cast<std::uint32_t>(rng.next());
    c.l2TotalSizeBytes = rng.next();
    c.l2Assoc = static_cast<std::uint32_t>(rng.next());
    c.l2MshrEntries = static_cast<std::uint32_t>(rng.next());
    c.l2MshrMerge = static_cast<std::uint32_t>(rng.next());
    c.l2MissQueue = static_cast<std::uint32_t>(rng.next());
    c.l2RespQueue = static_cast<std::uint32_t>(rng.next());
    c.l2AccessQueue = static_cast<std::uint32_t>(rng.next());
    c.l2PortBytes = static_cast<std::uint32_t>(rng.next());
    c.l2HitLatency = static_cast<std::uint32_t>(rng.next());
    c.ropLatency = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tCCD = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tRRD = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tRCD = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tRAS = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tRP = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tRC = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.CL = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.WL = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tCDLR = static_cast<std::uint32_t>(rng.next());
    c.dramTiming.tWR = static_cast<std::uint32_t>(rng.next());
    c.dramBanks = static_cast<std::uint32_t>(rng.next());
    c.dramRowBytes = static_cast<std::uint32_t>(rng.next());
    c.dramBusBytesPerCycle = static_cast<std::uint32_t>(rng.next());
    c.dramSchedQueue = static_cast<std::uint32_t>(rng.next());
    c.dramReturnQueue = static_cast<std::uint32_t>(rng.next());
    c.dramReturnPipeLatency = static_cast<std::uint32_t>(rng.next());
    c.l1BypassReads = rng.chance(0.5);
    c.sectorBytes = static_cast<std::uint32_t>(rng.next());
    c.l2Interleave = rng.chance(0.5) ? L2Interleave::PartitionFirst
                                     : L2Interleave::BankFirst;
    c.mode = static_cast<MemoryMode>(rng.below(4));
    c.fixedL1MissLatency = static_cast<std::uint32_t>(rng.next());
    c.perfectL2Latency = static_cast<std::uint32_t>(rng.next());
    c.perfectDramLatency = static_cast<std::uint32_t>(rng.next());
    c.idealDramLatency = static_cast<std::uint32_t>(rng.next());
    c.maxCoreCycles = rng.next();
    return c;
}

std::shared_ptr<const TraceData>
randomTrace(Rng &rng)
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = randomString(rng, 40);
    t->ctaTagged = rng.chance(0.5);
    const std::size_t n = 1 + rng.below(50);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.op = rng.chance(0.5) ? Op::Store : Op::Load;
        rec.addr = rng.next();
        rec.cta = t->ctaTagged
                      ? static_cast<std::int32_t>(rng.below(8))
                      : -1;
        t->records.push_back(rec);
    }
    sealTrace(*t);
    return t;
}

WorkloadSpec
randomWorkload(Rng &rng)
{
    WorkloadSpec s;
    s.profile = randomProfile(rng);
    switch (rng.below(3)) {
    case 0:
        break;
    case 1:
        s.kind = WorkloadKind::Trace;
        s.trace = randomTrace(rng);
        break;
    default:
        s.kind = WorkloadKind::Generator;
        s.gen.kind = rng.chance(0.5) ? GenKind::PointerChase
                                     : GenKind::Stride;
        s.gen.regionBytes = rng.next();
        s.gen.strideBytes = rng.next();
        s.gen.insts = randomInt(rng);
        break;
    }
    return s;
}

std::string
workloadBytes(const WorkloadSpec &s)
{
    ByteWriter w;
    serializeWorkload(w, s);
    return std::move(w).take();
}

std::string
resultBytes(const SimResult &r)
{
    ByteWriter w;
    serializeResult(w, r);
    return std::move(w).take();
}

std::string
profileBytes(const BenchmarkProfile &p)
{
    ByteWriter w;
    serializeProfile(w, p);
    return std::move(w).take();
}

std::string
configBytes(const GpuConfig &c)
{
    ByteWriter w;
    serializeConfig(w, c);
    return std::move(w).take();
}

} // namespace

TEST(FuzzSerdes, SimResultRoundTripsBitExact)
{
    Rng rng(101);
    for (int i = 0; i < kRounds; ++i) {
        const SimResult orig = randomResult(rng);
        const std::string bytes = resultBytes(orig);
        ByteReader r(bytes);
        SimResult back;
        ASSERT_TRUE(deserializeResult(r, back)) << "round " << i;
        EXPECT_EQ(r.remaining(), 0u);
        // Re-serialization is the bit-exactness oracle: every field,
        // NaN payloads included, must reproduce the same bytes.
        EXPECT_EQ(resultBytes(back), bytes) << "round " << i;
    }
}

TEST(FuzzSerdes, SimResultTruncationsAllRejected)
{
    Rng rng(202);
    for (int i = 0; i < 4; ++i) {
        const std::string bytes = resultBytes(randomResult(rng));
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            const std::string t = bytes.substr(0, cut);
            ByteReader r(t);
            SimResult back;
            EXPECT_FALSE(deserializeResult(r, back))
                << "round " << i << " cut " << cut;
        }
    }
}

TEST(FuzzSerdes, ProfileRoundTripsBitExact)
{
    Rng rng(303);
    for (int i = 0; i < kRounds; ++i) {
        const BenchmarkProfile orig = randomProfile(rng);
        const std::string bytes = profileBytes(orig);
        ByteReader r(bytes);
        BenchmarkProfile back;
        ASSERT_TRUE(deserializeProfile(r, back)) << "round " << i;
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_EQ(profileBytes(back), bytes) << "round " << i;
        EXPECT_EQ(back.cacheKey(), orig.cacheKey()) << "round " << i;
    }
}

TEST(FuzzSerdes, ProfileTruncationsAllRejected)
{
    Rng rng(404);
    const std::string bytes = profileBytes(randomProfile(rng));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::string t = bytes.substr(0, cut);
        ByteReader r(t);
        BenchmarkProfile back;
        EXPECT_FALSE(deserializeProfile(r, back)) << "cut " << cut;
    }
}

TEST(FuzzSerdes, ConfigRoundTripsBitExact)
{
    Rng rng(505);
    for (int i = 0; i < kRounds; ++i) {
        const GpuConfig orig = randomConfig(rng);
        const std::string bytes = configBytes(orig);
        ByteReader r(bytes);
        GpuConfig back;
        ASSERT_TRUE(deserializeConfig(r, back)) << "round " << i;
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_EQ(configBytes(back), bytes) << "round " << i;
        EXPECT_EQ(back.cacheKey(), orig.cacheKey()) << "round " << i;
    }
}

TEST(FuzzSerdes, ConfigTruncationsAllRejected)
{
    Rng rng(606);
    const std::string bytes = configBytes(randomConfig(rng));
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::string t = bytes.substr(0, cut);
        ByteReader r(t);
        GpuConfig back;
        EXPECT_FALSE(deserializeConfig(r, back)) << "cut " << cut;
    }
}

TEST(FuzzSerdes, ConfigRejectsOutOfRangeEnums)
{
    GpuConfig base = GpuConfig::baseline();
    const std::string bytes = configBytes(base);
    // The schedPolicy byte follows the 4 clock doubles is fiddly to
    // locate by offset; instead corrupt via a hand-built stream:
    // serialize, find the single u8 positions by construction.
    ByteWriter w;
    serializeConfig(w, base);
    std::string raw = std::move(w).take();
    // name is length-prefixed (4 + len), then 3 f64 clocks, then 9
    // u64 core knobs: the next byte is schedPolicy.
    const std::size_t sched_off = 4 + base.name.size() + 3 * 8 + 9 * 8;
    ASSERT_LT(sched_off, raw.size());
    raw[sched_off] = 17; // no such SchedPolicy
    ByteReader r(raw);
    GpuConfig back;
    EXPECT_FALSE(deserializeConfig(r, back));
    EXPECT_EQ(bytes, configBytes(base)) << "serialization is stable";
}

TEST(FuzzSerdes, FramedBlobRoundTripsAndRejectsTampering)
{
    Rng rng(707);
    for (int i = 0; i < kRounds; ++i) {
        const std::string payload = randomString(rng, 200);
        const std::uint32_t magic =
            static_cast<std::uint32_t>(rng.next());
        const std::uint32_t version =
            static_cast<std::uint32_t>(rng.next());
        const std::string framed = frameBlob(magic, version, payload);

        std::string back;
        ASSERT_TRUE(unframeBlob(magic, version, framed, back));
        EXPECT_EQ(back, payload);
        EXPECT_FALSE(unframeBlob(magic + 1, version, framed, back));
        EXPECT_FALSE(unframeBlob(magic, version + 1, framed, back));
        // Trailing garbage is rejected (no silent over-read).
        EXPECT_FALSE(unframeBlob(magic, version, framed + "x", back));

        // Any truncation dies cleanly.
        const std::size_t cut = rng.below(framed.size());
        EXPECT_FALSE(
            unframeBlob(magic, version, framed.substr(0, cut), back))
            << "round " << i << " cut " << cut;

        // Any single-bit flip dies cleanly: header flips break the
        // magic/version/length, payload flips break the checksum.
        std::string flipped = framed;
        const std::size_t pos = rng.below(flipped.size());
        flipped[pos] = static_cast<char>(
            flipped[pos] ^ static_cast<char>(1 << rng.below(8)));
        EXPECT_FALSE(unframeBlob(magic, version, flipped, back))
            << "round " << i << " pos " << pos;
    }
}

TEST(FuzzSerdes, WorkloadRoundTripsBitExact)
{
    Rng rng(1414);
    for (int i = 0; i < kRounds; ++i) {
        const WorkloadSpec orig = randomWorkload(rng);
        const std::string bytes = workloadBytes(orig);
        ByteReader r(bytes);
        WorkloadSpec back;
        ASSERT_TRUE(deserializeWorkload(r, back)) << "round " << i;
        EXPECT_EQ(r.remaining(), 0u);
        EXPECT_EQ(workloadBytes(back), bytes) << "round " << i;
        EXPECT_EQ(back.cacheKey(), orig.cacheKey()) << "round " << i;
    }
}

TEST(FuzzSerdes, WorkloadTruncationsAllRejected)
{
    Rng rng(1515);
    // One spec of each kind; every prefix of its envelope must fail.
    for (int round = 0; round < 6; ++round) {
        const WorkloadSpec spec = randomWorkload(rng);
        const std::string bytes = workloadBytes(spec);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            const std::string prefix = bytes.substr(0, cut);
            ByteReader r(prefix);
            WorkloadSpec back;
            EXPECT_FALSE(deserializeWorkload(r, back))
                << "kind " << static_cast<int>(spec.kind) << " cut "
                << cut;
        }
    }
}

TEST(FuzzSerdes, TraceWorkloadPayloadFlipsAllRejected)
{
    // Every bit flip in the hashed payload -- the stored hash, the
    // record count or the canonical record bytes -- must be caught by
    // the content-hash cross-check (the frame checksum is not in play
    // here; this is the inner envelope on its own).
    Rng rng(1616);
    auto trace = randomTrace(rng);
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.profile = randomProfile(rng);
    spec.trace = trace;
    const std::string bytes = workloadBytes(spec);
    const std::size_t tail =
        1 + profileBytes(spec.profile).size() + 4 +
        trace->sourceName.size() + 1;
    ASSERT_LT(tail, bytes.size());
    for (std::size_t pos = tail; pos < bytes.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = bytes;
            flipped[pos] =
                static_cast<char>(flipped[pos] ^ (1 << bit));
            ByteReader r(flipped);
            WorkloadSpec back;
            EXPECT_FALSE(deserializeWorkload(r, back))
                << "pos " << pos << " bit " << bit;
        }
    }
}

TEST(FuzzSerdes, JobFilesCarryEveryWorkloadKind)
{
    Rng rng(1717);
    for (int i = 0; i < kRounds / 2; ++i) {
        RunSpec spec{randomWorkload(rng), randomConfig(rng)};
        const std::string bytes = encodeJob(spec);
        RunSpec back;
        std::string why;
        ASSERT_TRUE(decodeJob(bytes, back, &why))
            << "round " << i << ": " << why;
        EXPECT_EQ(workKeyOf(back), workKeyOf(spec)) << "round " << i;
        EXPECT_EQ(encodeJob(back), bytes) << "round " << i;
    }
}

TEST(FuzzSerdes, JobFilesRejectEveryBitFlip)
{
    Rng rng(808);
    RunSpec spec{randomProfile(rng), randomConfig(rng)};
    const std::string bytes = encodeJob(spec);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string flipped = bytes;
        flipped[pos] = static_cast<char>(
            flipped[pos] ^ static_cast<char>(1 << rng.below(8)));
        RunSpec out;
        EXPECT_FALSE(decodeJob(flipped, out)) << "pos " << pos;
    }
}

TEST(FuzzSerdes, JobFilesRejectEveryTruncation)
{
    Rng rng(909);
    RunSpec spec{randomProfile(rng), randomConfig(rng)};
    const std::string bytes = encodeJob(spec);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        RunSpec out;
        EXPECT_FALSE(decodeJob(bytes.substr(0, cut), out))
            << "cut " << cut;
    }
}

TEST(FuzzSerdes, JobRoundTripFuzz)
{
    Rng rng(1010);
    for (int i = 0; i < kRounds / 2; ++i) {
        RunSpec spec{randomProfile(rng), randomConfig(rng)};
        const std::string bytes = encodeJob(spec);
        RunSpec back;
        ASSERT_TRUE(decodeJob(bytes, back)) << "round " << i;
        EXPECT_EQ(workKeyOf(back), workKeyOf(spec)) << "round " << i;
        EXPECT_EQ(encodeJob(back), bytes) << "round " << i;
    }
}

TEST(FuzzSerdes, ReplyFilesRejectEveryBitFlipAndTruncation)
{
    Rng rng(1111);
    const SimResult result = randomResult(rng);
    const std::string key = randomString(rng, 64);
    const std::string bytes = encodeReply(key, result);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::string flipped = bytes;
        flipped[pos] = static_cast<char>(
            flipped[pos] ^ static_cast<char>(1 << rng.below(8)));
        std::string back_key;
        SimResult back;
        EXPECT_FALSE(decodeReply(flipped, back_key, back))
            << "pos " << pos;
    }
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::string back_key;
        SimResult back;
        EXPECT_FALSE(decodeReply(bytes.substr(0, cut), back_key, back))
            << "cut " << cut;
    }
}

TEST(FuzzSerdes, ReplyRoundTripFuzz)
{
    Rng rng(1212);
    for (int i = 0; i < kRounds / 2; ++i) {
        const SimResult result = randomResult(rng);
        const std::string key = randomString(rng, 64);
        const std::string bytes = encodeReply(key, result);
        std::string back_key;
        SimResult back;
        ASSERT_TRUE(decodeReply(bytes, back_key, back)) << "round " << i;
        EXPECT_EQ(back_key, key) << "round " << i;
        EXPECT_EQ(resultBytes(back), resultBytes(result))
            << "round " << i;
    }
}

TEST(FuzzSerdes, RandomGarbageNeverDecodes)
{
    Rng rng(1313);
    for (int i = 0; i < kRounds * 4; ++i) {
        const std::string garbage = randomString(rng, 400);
        RunSpec spec;
        EXPECT_FALSE(decodeJob(garbage, spec)) << "round " << i;
        std::string key;
        SimResult result;
        EXPECT_FALSE(decodeReply(garbage, key, result)) << "round " << i;
    }
}
