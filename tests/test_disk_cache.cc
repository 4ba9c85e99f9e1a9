/**
 * @file
 * Tests for the persistent SimCache tier: exact SimResult round trips
 * through the serdes layer and the on-disk format, rejection of other
 * format versions, tolerance of truncated/corrupt files, and the
 * acceptance scenario -- a second driver invocation over a warm cache
 * directory performs zero simulations.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/disk_cache.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu_config.hh"
#include "workloads/profile.hh"

namespace fs = std::filesystem;
using namespace bwsim;

namespace
{

/** Fresh empty directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "bwsim-" + name;
    fs::remove_all(dir);
    return dir;
}

/** A SimResult with a distinctive value in every field. */
SimResult
sampleResult()
{
    SimResult r;
    r.benchmark = "bench|with\ndelimiters";
    r.config = "cfg-16+48";
    r.coreCycles = 123456789ull;
    r.elapsedPs = 3.5e12;
    r.warpInstsIssued = 987654321ull;
    r.timedOut = true;
    r.ipc = 12.75;
    r.perf = 1.25e10;
    r.issueStallFrac = 0.625;
    r.aml = 451.5;
    r.l2Ahl = 302.25;
    for (std::size_t i = 0; i < r.issueStallDist.size(); ++i)
        r.issueStallDist[i] = 0.01 * double(i + 1);
    for (std::size_t i = 0; i < r.l2AccessQueueOcc.size(); ++i)
        r.l2AccessQueueOcc[i] = 0.02 * double(i + 1);
    for (std::size_t i = 0; i < r.dramQueueOcc.size(); ++i)
        r.dramQueueOcc[i] = 0.03 * double(i + 1);
    for (std::size_t i = 0; i < r.l2StallDist.size(); ++i)
        r.l2StallDist[i] = 0.04 * double(i + 1);
    for (std::size_t i = 0; i < r.l1StallDist.size(); ++i)
        r.l1StallDist[i] = 0.05 * double(i + 1);
    r.l1MissRate = 0.375;
    r.l2MissRate = 0.4375;
    r.dramEfficiency = 0.41;
    r.dramRowHitRate = 0.59;
    r.l1Accesses = 11;
    r.l2Accesses = 22;
    r.l2ReadHits = 33;
    r.l2ReadMisses = 44;
    r.l2Merges = 55;
    r.dramReads = 66;
    r.dramWrites = 77;
    r.l1StallCycles = 88;
    r.l2StallCycles = 99;
    r.l1IcntBytes = 111;
    r.icntL2Bytes = 222;
    r.l2DramBytes = 333;
    r.l1IcntBpc = 25.5;
    r.icntL2Bpc = 24.25;
    r.l2DramBpc = 17.125;
    r.l1IcntUtil = 0.5;
    r.icntL2Util = 0.625;
    r.l2DramUtil = 0.0625;
    return r;
}

/** Every field must survive the round trip exactly. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.elapsedPs, b.elapsedPs);
    EXPECT_EQ(a.warpInstsIssued, b.warpInstsIssued);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.perf, b.perf);
    EXPECT_EQ(a.issueStallFrac, b.issueStallFrac);
    EXPECT_EQ(a.aml, b.aml);
    EXPECT_EQ(a.l2Ahl, b.l2Ahl);
    EXPECT_EQ(a.issueStallDist, b.issueStallDist);
    EXPECT_EQ(a.l2AccessQueueOcc, b.l2AccessQueueOcc);
    EXPECT_EQ(a.dramQueueOcc, b.dramQueueOcc);
    EXPECT_EQ(a.l2StallDist, b.l2StallDist);
    EXPECT_EQ(a.l1StallDist, b.l1StallDist);
    EXPECT_EQ(a.l1MissRate, b.l1MissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.dramEfficiency, b.dramEfficiency);
    EXPECT_EQ(a.dramRowHitRate, b.dramRowHitRate);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.l2ReadHits, b.l2ReadHits);
    EXPECT_EQ(a.l2ReadMisses, b.l2ReadMisses);
    EXPECT_EQ(a.l2Merges, b.l2Merges);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.l1StallCycles, b.l1StallCycles);
    EXPECT_EQ(a.l2StallCycles, b.l2StallCycles);
    EXPECT_EQ(a.l1IcntBytes, b.l1IcntBytes);
    EXPECT_EQ(a.icntL2Bytes, b.icntL2Bytes);
    EXPECT_EQ(a.l2DramBytes, b.l2DramBytes);
    EXPECT_EQ(a.l1IcntBpc, b.l1IcntBpc);
    EXPECT_EQ(a.icntL2Bpc, b.icntL2Bpc);
    EXPECT_EQ(a.l2DramBpc, b.l2DramBpc);
    EXPECT_EQ(a.l1IcntUtil, b.l1IcntUtil);
    EXPECT_EQ(a.icntL2Util, b.icntL2Util);
    EXPECT_EQ(a.l2DramUtil, b.l2DramUtil);
}

std::string
entryPathFor(const DiskSimCache &cache, const std::string &key)
{
    return cache.dir() + "/" + DiskSimCache::fileNameFor(key);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(bool(in)) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(Serdes, SimResultRoundTripsEveryField)
{
    SimResult orig = sampleResult();
    ByteWriter w;
    serializeResult(w, orig);

    ByteReader r(w.bytes());
    SimResult back;
    ASSERT_TRUE(deserializeResult(r, back));
    EXPECT_EQ(r.remaining(), 0u);
    expectIdentical(orig, back);
}

TEST(Serdes, SimResultTruncatedPayloadRejected)
{
    ByteWriter w;
    serializeResult(w, sampleResult());
    for (std::size_t cut : {std::size_t(0), std::size_t(3),
                            w.bytes().size() / 2,
                            w.bytes().size() - 1}) {
        std::string bytes = w.bytes().substr(0, cut);
        ByteReader r(bytes);
        SimResult back;
        EXPECT_FALSE(deserializeResult(r, back)) << "cut=" << cut;
    }
}

TEST(DiskSimCache, StoreLoadRoundTrip)
{
    DiskSimCache cache(freshDir("roundtrip"));
    const std::string key = "profile-key\nconfig-key";
    SimResult orig = sampleResult();

    ASSERT_TRUE(cache.store(key, orig));
    SimResult back;
    ASSERT_TRUE(cache.load(key, back));
    expectIdentical(orig, back);
    EXPECT_EQ(cache.storesSucceeded(), 1u);
    EXPECT_EQ(cache.loadHits(), 1u);
    EXPECT_EQ(cache.rejected(), 0u);
}

TEST(DiskSimCache, EntryLargerThanTheFirstReadChunkRoundTrips)
{
    // An entry is read into a 4 KiB stack chunk first, and the file
    // size is asked for only when that chunk fills. A workload name
    // of 5,000 characters puts this entry past it.
    DiskSimCache cache(freshDir("large-entry"));
    BenchmarkProfile p = makeTestProfile("tiny-compute");
    p.name = std::string(5000, 'w');
    const std::string key = SimCache::keyOf(p, GpuConfig::baseline());
    SimResult orig = sampleResult();
    orig.benchmark = p.name;

    ASSERT_TRUE(cache.store(key, orig));
    EXPECT_GT(fs::file_size(entryPathFor(cache, key)), 2 * 4096u);
    SimResult back;
    ASSERT_TRUE(cache.load(key, back));
    expectIdentical(orig, back);
    EXPECT_EQ(cache.loadHits(), 1u);
    EXPECT_EQ(cache.rejected(), 0u);
}

TEST(DiskSimCache, MissingKeyIsMiss)
{
    DiskSimCache cache(freshDir("missing"));
    SimResult out;
    EXPECT_FALSE(cache.load("nope", out));
    EXPECT_EQ(cache.loadMisses(), 1u);
    EXPECT_EQ(cache.rejected(), 0u);
}

TEST(DiskSimCache, VersionMismatchRejected)
{
    DiskSimCache cache(freshDir("version"));
    const std::string key = "k";
    ASSERT_TRUE(cache.store(key, sampleResult()));

    // Flip the formatVersion field (bytes 4..7, after the magic).
    std::string path = entryPathFor(cache, key);
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 8u);
    bytes[4] = static_cast<char>(bytes[4] ^ 0x7f);
    writeFile(path, bytes);

    SimResult out;
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.rejected(), 1u);
}

TEST(DiskSimCache, TruncatedFileIsMissNotError)
{
    DiskSimCache cache(freshDir("truncated"));
    const std::string key = SimCache::keyOf(makeTestProfile("tiny-compute"),
                                            GpuConfig::baseline());
    ASSERT_TRUE(cache.store(key, sampleResult()));

    // Any cut short of the full entry -- inside the header, the
    // stored key or the payload -- is a published entry gone bad:
    // rejected(). Zero length is an interrupted write, a plain miss
    // (ZeroLengthFileIsMissNotCorruption).
    std::string path = entryPathFor(cache, key);
    std::string bytes = readFile(path);
    const std::size_t key_at = 7 * 4; // six header words + key length
    std::uint64_t rejected = 0;
    for (std::size_t cut :
         {std::size_t(0), std::size_t(3), key_at + 10,
          key_at + key.size() + 4, bytes.size() / 2, bytes.size() - 1}) {
        writeFile(path, bytes.substr(0, cut));
        SimResult out;
        EXPECT_FALSE(cache.load(key, out)) << "cut=" << cut;
        if (cut > 0)
            ++rejected;
        EXPECT_EQ(cache.rejected(), rejected) << "cut=" << cut;
    }
    // Restoring the original bytes restores the entry.
    writeFile(path, bytes);
    SimResult out;
    EXPECT_TRUE(cache.load(key, out));
}

TEST(DiskSimCache, CorruptPayloadByteFailsChecksum)
{
    DiskSimCache cache(freshDir("corrupt"));
    const std::string key = "k";
    ASSERT_TRUE(cache.store(key, sampleResult()));

    std::string path = entryPathFor(cache, key);
    std::string bytes = readFile(path);
    bytes[bytes.size() - 5] =
        static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
    writeFile(path, bytes);

    SimResult out;
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.rejected(), 1u);
}

TEST(DiskSimCache, GarbageFileIsMiss)
{
    DiskSimCache cache(freshDir("garbage"));
    const std::string key = "k";
    writeFile(entryPathFor(cache, key), "this is not a cache entry");
    SimResult out;
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.rejected(), 1u);
}

TEST(DiskSimCache, KeyStoredInsideFileGuardsHashCollisions)
{
    DiskSimCache cache(freshDir("keycheck"));
    const std::string key = "real-key";
    ASSERT_TRUE(cache.store(key, sampleResult()));

    // Aliasing a foreign key's file under this key's name (as a hash
    // collision would) must read as a miss, not a wrong result.
    std::string other = entryPathFor(cache, "other-key");
    fs::copy_file(entryPathFor(cache, key), other);
    SimResult out;
    EXPECT_FALSE(cache.load("other-key", out));
    EXPECT_EQ(cache.rejected(), 1u);

    // So must a stored key one byte off, wherever the byte is.
    const std::string path = entryPathFor(cache, key);
    const std::string bytes = readFile(path);
    const std::size_t key_at = 7 * 4;
    ASSERT_EQ(bytes.compare(key_at, key.size(), key), 0);
    std::uint64_t rejected = 1;
    for (std::size_t i : {std::size_t(0), key.size() / 2, key.size() - 1}) {
        std::string bad = bytes;
        bad[key_at + i] = static_cast<char>(bad[key_at + i] ^ 0x01);
        writeFile(path, bad);
        EXPECT_FALSE(cache.load(key, out)) << "key byte " << i;
        EXPECT_EQ(cache.rejected(), ++rejected) << "key byte " << i;
    }
}

TEST(DiskSimCache, SecondInvocationSimulatesNothing)
{
    // The acceptance scenario, driver-invocation shaped: two SimCache
    // instances (one per "invocation") share a cache directory; every
    // unique (profile, config) pair simulates exactly once across
    // both.
    std::string dir = freshDir("two-invocations");
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCoreCycles = 400000;
    std::vector<RunSpec> specs{{makeTestProfile("tiny-compute"), cfg},
                               {makeTestProfile("tiny-stream"), cfg}};

    SimCache first;
    first.attachDiskTier(dir);
    auto cold = first.runAll(specs, 1);
    EXPECT_EQ(first.simsRun(), 2u);
    EXPECT_EQ(first.diskHits(), 0u);
    EXPECT_EQ(first.diskStores(), 2u);

    SimCache second;
    second.attachDiskTier(dir);
    auto warm = second.runAll(specs, 1);
    EXPECT_EQ(second.simsRun(), 0u) << "warm invocation re-simulated";
    EXPECT_EQ(second.diskHits(), 2u);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        expectIdentical(cold[i], warm[i]);
}

TEST(DiskSimCache, ZeroLengthFileIsMissNotCorruption)
{
    // A crash between creating the temp file and writing it -- or an
    // interrupted copy of the cache directory -- leaves a zero-length
    // file. That must read as an ordinary miss (with a warning), not
    // as a corrupt published entry, and a subsequent store must heal
    // it.
    DiskSimCache cache(freshDir("zero-length"));
    const std::string key = "k";
    writeFile(entryPathFor(cache, key), "");

    SimResult out;
    EXPECT_FALSE(cache.load(key, out));
    EXPECT_EQ(cache.loadMisses(), 1u);
    EXPECT_EQ(cache.rejected(), 0u)
        << "zero-length is an interrupted write, not corruption";

    ASSERT_TRUE(cache.store(key, sampleResult()));
    EXPECT_TRUE(cache.load(key, out));
    expectIdentical(sampleResult(), out);
}

TEST(CacheDir, StatsCountHeaderValidEntriesAndTheirBytes)
{
    std::string dir = freshDir("stats");
    DiskSimCache cache(dir);
    // Keys in the SimCache's "workloadKey \n configKey" shape.
    const char *const keys[] = {"1:a|x|\n8:baseline|y|",
                                "1:b|x|\n8:baseline|y|",
                                "1:a|x|\n5:16+48|z|"};
    std::uint64_t bytes = 0;
    for (const char *key : keys) {
        ASSERT_TRUE(cache.store(key, sampleResult()));
        bytes += fs::file_size(entryPathFor(cache, key));
    }
    // Neither a foreign format under an entry name, nor a file that
    // is not named like an entry, nor a writer's temp file counts.
    writeFile(dir + "/sc-0000000000000bad.bin", "not an entry");
    writeFile(dir + "/README.txt", "not a cache file at all");
    writeFile(dir + "/tmp-1-0.part", "half-written entry");

    CacheDirStats stats = scanCacheDir(dir);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.bytes, bytes);
}

TEST(DiskSimCache, ClearDropsMemoryButKeepsDiskTier)
{
    std::string dir = freshDir("clear");
    GpuConfig cfg = GpuConfig::baseline();
    cfg.maxCoreCycles = 400000;
    std::vector<RunSpec> specs{{makeTestProfile("tiny-compute"), cfg}};

    SimCache cache;
    cache.attachDiskTier(dir);
    cache.runAll(specs, 1);
    EXPECT_EQ(cache.simsRun(), 1u);

    cache.clear(); // a fresh invocation over a warm directory
    cache.runAll(specs, 1);
    EXPECT_EQ(cache.simsRun(), 0u);
    EXPECT_EQ(cache.diskHits(), 1u);
}
