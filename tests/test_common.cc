/** @file Unit tests for src/common: intmath, rng, logging helpers,
 *  whole-file reads. */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/atomic_file.hh"
#include "common/intmath.hh"
#include "common/log.hh"
#include "common/rng.hh"

#ifdef __unix__
#include <sys/stat.h>
#endif

using namespace bwsim;

TEST(IntMath, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(128));
    EXPECT_TRUE(isPowerOf2(1ull << 63));
    EXPECT_FALSE(isPowerOf2((1ull << 63) + 1));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(128), 7u);
    EXPECT_EQ(floorLog2(255), 7u);
    EXPECT_EQ(floorLog2(256), 8u);
}

TEST(IntMath, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(128), 7u);
    EXPECT_EQ(ceilLog2(129), 8u);
}

TEST(IntMath, DivCeilAndRounding)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
    EXPECT_EQ(divCeil(136, 32), 5u);
    EXPECT_EQ(roundUp(5, 4), 8u);
    EXPECT_EQ(roundUp(8, 4), 8u);
    EXPECT_EQ(roundDown(5, 4), 4u);
    EXPECT_EQ(roundDown(8, 4), 8u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, MixSeedSpreads)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t a = 0; a < 32; ++a)
        for (std::uint64_t b = 0; b < 32; ++b)
            seeds.insert(Rng::mixSeed(a, b));
    EXPECT_EQ(seeds.size(), 32u * 32u);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (r.chance(0.3))
            ++hits;
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Log, Csprintf)
{
    EXPECT_EQ(csprintf("x=%d", 42), "x=42");
    EXPECT_EQ(csprintf("%s-%05u", "ab", 7u), "ab-00007");
    EXPECT_EQ(csprintf("plain"), "plain");

    // Up to 255 bytes format in one pass into a stack buffer; longer
    // output takes the sized second pass. Both return exactly the
    // formatted bytes.
    for (std::size_t len : {std::size_t(0), std::size_t(254),
                            std::size_t(255), std::size_t(256),
                            std::size_t(257), std::size_t(5000)}) {
        const std::string body(len, 'q');
        EXPECT_EQ(csprintf("%s", body.c_str()), body) << len;
        EXPECT_EQ(csprintf("<%s>%d", body.c_str(), 7), "<" + body + ">7")
            << len;
    }
}

TEST(Log, QuietFlag)
{
    EXPECT_FALSE(quiet());
    setQuiet(true);
    EXPECT_TRUE(quiet());
    setQuiet(false);
    EXPECT_FALSE(quiet());
}

namespace
{

std::filesystem::path
scratchFile(const std::string &name)
{
    const auto path =
        std::filesystem::path(::testing::TempDir()) / ("bwsim-" + name);
    std::filesystem::remove(path);
    return path;
}

void
writeBytes(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Seeded pseudo-random bytes: a misplaced block cannot compare equal. */
std::string
patternBytes(std::size_t n)
{
    std::string s(n, '\0');
    Rng rng(n);
    for (char &c : s)
        c = static_cast<char>(rng.next());
    return s;
}

} // namespace

TEST(ReadFileBytes, EmptyFileIsReadableAndEmpty)
{
    // DiskSimCache::load() tells a zero-length entry (interrupted
    // write: warned miss) from an unreadable one by this.
    const auto path = scratchFile("empty");
    writeBytes(path, "");
    std::string out = "stale";
    EXPECT_TRUE(readFileBytes(path, out));
    EXPECT_TRUE(out.empty());
}

TEST(ReadFileBytes, MissingFileIsFalse)
{
    std::string out;
    EXPECT_FALSE(readFileBytes(scratchFile("missing"), out));
    EXPECT_FALSE(readFileBytes(::testing::TempDir(), out))
        << "a directory is not a file";
}

TEST(ReadFileBytes, SmallAndMultiMegabyteFilesRoundTrip)
{
    const auto path = scratchFile("round-trip");
    for (std::size_t n : {std::size_t(1), std::size_t(1700),
                          std::size_t(4096), std::size_t((1 << 20) + 12345)}) {
        const std::string bytes = patternBytes(n);
        writeBytes(path, bytes);
        std::string out;
        ASSERT_TRUE(readFileBytes(path, out)) << n;
        EXPECT_EQ(out.size(), n);
        EXPECT_TRUE(out == bytes) << "content differs at size " << n;
    }
}

#ifdef __unix__
TEST(ReadFileBytes, UnsizedStreamDoublesUntilEndOfFile)
{
    // A FIFO reports no size, so the read starts at 4 KiB and doubles
    // until the writer closes: past 1 MiB that is nine doublings.
    const auto path = scratchFile("fifo");
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    // A reader that stops early must fail this test, not kill it.
    std::signal(SIGPIPE, SIG_IGN);
    const std::string bytes = patternBytes((1 << 20) + 777);
    std::thread writer([&] { writeBytes(path, bytes); });
    std::string out;
    const bool ok = readFileBytes(path, out);
    writer.join();
    std::filesystem::remove(path);
    ASSERT_TRUE(ok);
    EXPECT_EQ(out.size(), bytes.size());
    EXPECT_TRUE(out == bytes);
}
#endif
