/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include "cache/tag_array.hh"

using namespace bwsim;

namespace
{
constexpr Addr line(std::uint64_t i) { return i * 128; }
} // namespace

TEST(TagArray, Geometry)
{
    TagArray t(16 * 1024, 128, 4);
    EXPECT_EQ(t.numSets(), 32u);
    EXPECT_EQ(t.numWays(), 4u);
    EXPECT_EQ(t.lineSize(), 128u);
}

TEST(TagArray, MissThenFillThenHit)
{
    TagArray t(16 * 1024, 128, 4);
    ProbeOutcome p = t.probe(line(0));
    EXPECT_EQ(p.result, ProbeResult::MissVacant);
    t.reserve(line(0), p.way, 1);
    EXPECT_EQ(t.probe(line(0)).result, ProbeResult::HitReserved);
    EXPECT_EQ(t.reservedLines(), 1u);
    t.fill(line(0), 2, false);
    EXPECT_EQ(t.probe(line(0)).result, ProbeResult::Hit);
    EXPECT_TRUE(t.isValid(line(0)));
    EXPECT_EQ(t.reservedLines(), 0u);
}

TEST(TagArray, LruEviction)
{
    // One set, 2 ways: 2-way 2-set cache; lines 0,2,4 share set 0.
    TagArray t(2 * 2 * 128, 128, 2);
    for (std::uint64_t i : {0, 2}) {
        ProbeOutcome p = t.probe(line(i));
        t.reserve(line(i), p.way, i);
        t.fill(line(i), i, false);
    }
    t.accessHit(line(0), t.probe(line(0)).way, 10, false); // 0 is MRU
    ProbeOutcome p = t.probe(line(4));
    ASSERT_EQ(p.result, ProbeResult::MissEvict);
    EXPECT_EQ(p.victimAddr, line(2)); // LRU way holds line 2
    EXPECT_FALSE(p.victimDirty);
}

TEST(TagArray, DirtyVictimReported)
{
    TagArray t(2 * 2 * 128, 128, 2);
    for (std::uint64_t i : {0, 2}) {
        ProbeOutcome p = t.probe(line(i));
        t.reserve(line(i), p.way, i);
        t.fill(line(i), i, true); // dirty fill
    }
    ProbeOutcome p = t.probe(line(4));
    ASSERT_EQ(p.result, ProbeResult::MissEvict);
    EXPECT_TRUE(p.victimDirty);
}

TEST(TagArray, AllWaysReservedBlocksAllocation)
{
    TagArray t(2 * 2 * 128, 128, 2);
    for (std::uint64_t i : {0, 2}) {
        ProbeOutcome p = t.probe(line(i));
        t.reserve(line(i), p.way, i);
    }
    // Set 0 fully reserved: a third line cannot allocate.
    EXPECT_EQ(t.probe(line(4)).result, ProbeResult::MissNoLine);
    // ...but the other set is unaffected.
    EXPECT_EQ(t.probe(line(1)).result, ProbeResult::MissVacant);
}

TEST(TagArray, ReservedNotEvictable)
{
    TagArray t(2 * 2 * 128, 128, 2);
    ProbeOutcome p0 = t.probe(line(0));
    t.reserve(line(0), p0.way, 1);
    ProbeOutcome p2 = t.probe(line(2));
    t.reserve(line(2), p2.way, 1);
    t.fill(line(2), 2, false);
    // Victim must be the valid line 2, never the reserved line 0.
    ProbeOutcome p4 = t.probe(line(4));
    ASSERT_EQ(p4.result, ProbeResult::MissEvict);
    EXPECT_EQ(p4.victimAddr, line(2));
}

TEST(TagArray, InvalidateSkipsReserved)
{
    TagArray t(16 * 1024, 128, 4);
    ProbeOutcome p = t.probe(line(0));
    t.reserve(line(0), p.way, 1);
    t.invalidate(line(0)); // must be a no-op on a reserved line
    EXPECT_EQ(t.probe(line(0)).result, ProbeResult::HitReserved);
    t.fill(line(0), 2, false);
    t.invalidate(line(0));
    EXPECT_FALSE(t.isValid(line(0)));
}

TEST(TagArray, WriteEvictFlow)
{
    TagArray t(16 * 1024, 128, 4);
    ProbeOutcome p = t.probe(line(7));
    t.reserve(line(7), p.way, 1);
    t.fill(line(7), 1, false);
    t.invalidate(line(7));
    EXPECT_EQ(t.probe(line(7)).result, ProbeResult::MissVacant);
}

/**
 * Regression test for the L2 set-aliasing bug: a bank of an N-bank
 * line-interleaved cache sees only every N-th line; without the index
 * divisor those lines alias into gcd-limited sets and the bank wastes
 * most of its capacity.
 */
TEST(TagArray, IndexDivisorUsesAllSets)
{
    const std::uint32_t total_banks = 12;
    // 64 KB bank, 8-way: 64 sets.
    TagArray bank(64 * 1024, 128, 8, total_banks);
    // Feed the lines bank 0 would receive: global indices 0, 12, 24...
    // Exactly 512 of them fit in the 512-line bank.
    for (std::uint64_t i = 0; i < 512; ++i) {
        Addr a = line(i * total_banks);
        ProbeOutcome p = bank.probe(a);
        ASSERT_TRUE(p.result == ProbeResult::MissVacant)
            << "line " << i << " had to evict: set aliasing";
        bank.reserve(a, p.way, i);
        bank.fill(a, i, false);
    }
    // Everything must still be resident.
    for (std::uint64_t i = 0; i < 512; ++i)
        EXPECT_TRUE(bank.isValid(line(i * total_banks)));
}

TEST(TagArray, WithoutDivisorAliasingOccurs)
{
    // The same pattern with divisor 1 must evict (documents the bug
    // the divisor fixes: gcd(12, 64) = 4 -> only 1/4 of sets used).
    TagArray bank(64 * 1024, 128, 8, 1);
    bool evicted = false;
    for (std::uint64_t i = 0; i < 512 && !evicted; ++i) {
        Addr a = line(i * 12);
        ProbeOutcome p = bank.probe(a);
        if (p.result == ProbeResult::MissEvict) {
            evicted = true;
            break;
        }
        bank.reserve(a, p.way, i);
        bank.fill(a, i, false);
    }
    EXPECT_TRUE(evicted);
}

/**
 * A set count that is not a power of two (P-inf's 768 KB perfect L2:
 * 768 sets of 8 ways) must index by modulo: 6,144 consecutive lines
 * spread exactly 8 per set, so each one fills a vacant way.
 */
TEST(TagArray, NonPowerOfTwoSetCountUsesEverySet)
{
    TagArray t(768 * 1024, 128, 8);
    ASSERT_EQ(t.numSets(), 768u);
    for (std::uint64_t i = 0; i < 6144; ++i) {
        ProbeOutcome p = t.probe(line(i));
        ASSERT_EQ(p.result, ProbeResult::MissVacant)
            << "line " << i << " had to evict: set aliasing";
        t.reserve(line(i), p.way, i);
        t.fill(line(i), i, false);
    }
    for (std::uint64_t i = 0; i < 6144; ++i)
        EXPECT_TRUE(t.isValid(line(i)));
}
