/**
 * @file
 * Property/fuzz tests for the binary formats in the system:
 * randomized SimResult values must round-trip bit-exactly, and
 * truncated or bit-flipped buffers must be rejected cleanly (never
 * crash, never load garbage) -- for the raw result serializer and the
 * framed envelope. Deterministic seeds keep every run reproducible.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/serdes.hh"
#include "gpu/sim_result.hh"

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

std::string
resultBytes(const SimResult &r)
{
    ByteWriter w;
    serializeResult(w, r);
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

        std::string_view back;
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

