/** @file Unit tests for the MSHR table. */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cache/mshr.hh"
#include "mem/mem_fetch.hh"

using namespace bwsim;

TEST(Mshr, AllocateAndFill)
{
    MshrTable m(4, 8);
    EXPECT_FALSE(m.hasEntry(0x100));
    const int e = m.allocate(0x100);
    EXPECT_TRUE(m.hasEntry(0x100));
    EXPECT_EQ(m.find(0x100), e);
    m.addWaiter(e, MshrWaiter{3, 7, nullptr, false});
    EXPECT_EQ(m.waiterCount(e), 1u);

    std::vector<MshrWaiter> out;
    m.fill(e, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].warpId, 3);
    EXPECT_EQ(out[0].slotId, 7);
    EXPECT_FALSE(m.hasEntry(0x100));
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, MergeOrderPreserved)
{
    MshrTable m(4, 8);
    const int e = m.allocate(0x100);
    for (int i = 0; i < 5; ++i)
        m.addWaiter(e, MshrWaiter{i, i, nullptr, false});
    std::vector<MshrWaiter> out;
    m.fill(e, out);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i].warpId, i);
}

TEST(Mshr, MergeLimit)
{
    MshrTable m(4, 2);
    const int e = m.allocate(0x100);
    m.addWaiter(e, MshrWaiter{});
    EXPECT_TRUE(m.canMerge(e));
    m.addWaiter(e, MshrWaiter{});
    EXPECT_FALSE(m.canMerge(e));
}

TEST(Mshr, CapacityLimit)
{
    MshrTable m(2, 8);
    const int e = m.allocate(0x100);
    m.allocate(0x200);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.find(0x300), -1); // no merge target: would allocate
    // Existing entries still merge when the table is full.
    EXPECT_TRUE(m.canMerge(e));
}

TEST(Mshr, DirtyOnFill)
{
    MshrTable m(4, 8);
    const int a = m.allocate(0x100);
    EXPECT_FALSE(m.isDirtyOnFill(a));
    m.markDirtyOnFill(a);
    EXPECT_TRUE(m.isDirtyOnFill(a));
    // Another entry is unaffected.
    const int b = m.allocate(0x200);
    EXPECT_FALSE(m.isDirtyOnFill(b));
}

TEST(Mshr, TotalWaiters)
{
    MshrTable m(4, 8);
    const int a = m.allocate(0x100);
    const int b = m.allocate(0x200);
    m.addWaiter(a, MshrWaiter{});
    m.addWaiter(b, MshrWaiter{});
    m.addWaiter(b, MshrWaiter{});
    EXPECT_EQ(m.totalWaiters(), 3u);
}

TEST(Mshr, IndependentLines)
{
    MshrTable m(8, 4);
    for (Addr a = 0; a < 8 * 128; a += 128)
        m.allocate(a);
    EXPECT_EQ(m.size(), 8u);
    std::vector<MshrWaiter> out;
    m.fill(m.find(3 * 128), out);
    EXPECT_EQ(m.size(), 7u);
    EXPECT_FALSE(m.hasEntry(3 * 128));
    EXPECT_TRUE(m.hasEntry(4 * 128));
}

TEST(Mshr, MergeOnFullTable)
{
    // A full table must still merge secondary misses into existing
    // entries: merging needs no new entry, only a waiter slot.
    MshrTable m(2, 4);
    const int a = m.allocate(0x100);
    const int b = m.allocate(0x200);
    ASSERT_TRUE(m.full());

    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(m.canMerge(a));
        m.addWaiter(a, MshrWaiter{i, i, nullptr, false});
    }
    EXPECT_EQ(m.waiterCount(a), 3u);
    EXPECT_TRUE(m.full());
    // The fourth waiter exhausts the merge budget, not the table.
    m.addWaiter(a, MshrWaiter{3, 3, nullptr, false});
    EXPECT_FALSE(m.canMerge(a));
    EXPECT_TRUE(m.canMerge(b));

    std::vector<MshrWaiter> out;
    m.fill(a, out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.find(0x300), -1);
}

TEST(Mshr, SecondaryMissOrderingAcrossLines)
{
    // Interleaved secondary misses on two lines: each fill delivers
    // only its own line's waiters, in arrival (FIFO) order.
    MshrTable m(4, 8);
    const int a = m.allocate(0x100);
    const int b = m.allocate(0x200);
    for (int i = 0; i < 3; ++i) {
        m.addWaiter(a, MshrWaiter{10 + i, i, nullptr, false});
        m.addWaiter(b, MshrWaiter{20 + i, i, nullptr, false});
    }

    std::vector<MshrWaiter> out;
    m.fill(b, out);
    ASSERT_EQ(out.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(out[i].warpId, 20 + i);

    // fill() appends: line 0x100's waiters follow, again in order.
    m.fill(m.find(0x100), out);
    ASSERT_EQ(out.size(), 6u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(out[3 + i].warpId, 10 + i);
}

TEST(Mshr, WaiterBookkeepingAcrossFillCycles)
{
    // size() counts in-flight lines and totalWaiters() their merged
    // accesses; both must return to zero after every fill completes,
    // and an entry slot freed by fill() must be reusable at once.
    MshrTable m(2, 4);
    for (int round = 0; round < 3; ++round) {
        Addr a = 0x1000 * (round + 1);
        const int ea = m.allocate(a);
        const int eb = m.allocate(a + 0x80);
        m.addWaiter(ea, MshrWaiter{round, 0, nullptr, false});
        m.addWaiter(eb, MshrWaiter{round, 1, nullptr, false});
        m.addWaiter(eb, MshrWaiter{round, 2, nullptr, false});
        EXPECT_EQ(m.size(), 2u);
        EXPECT_EQ(m.totalWaiters(), 3u);

        std::vector<MshrWaiter> out;
        m.fill(ea, out);
        EXPECT_EQ(m.size(), 1u);
        EXPECT_EQ(m.totalWaiters(), 2u);
        m.fill(m.find(a + 0x80), out);
        EXPECT_EQ(m.size(), 0u);
        EXPECT_EQ(m.totalWaiters(), 0u);
        EXPECT_EQ(out.size(), 3u);
    }
}

TEST(Mshr, InstFetchWaiterFlagSurvivesMerge)
{
    MshrTable m(2, 4);
    const int e = m.allocate(0x100);
    m.addWaiter(e, MshrWaiter{0, 0, nullptr, true});
    m.addWaiter(e, MshrWaiter{1, 0, nullptr, false});
    std::vector<MshrWaiter> out;
    m.fill(e, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].isInstFetch);
    EXPECT_FALSE(out[1].isInstFetch);
}

TEST(Mshr, FillFromMiddleOfFullTableKeepsOtherEntries)
{
    // fill() moves the last entry into the freed slot: every other
    // entry must keep its waiters, in merge order, and its dirty bit.
    constexpr int n = 6;
    MshrTable m(n, 4);
    for (int i = 0; i < n; ++i) {
        const int e = m.allocate(0x1000 + 0x80 * i);
        for (int k = 0; k <= i % 4; ++k)
            m.addWaiter(e, MshrWaiter{i, k, nullptr, false});
        if (i % 2)
            m.markDirtyOnFill(e);
    }
    ASSERT_TRUE(m.full());

    std::vector<MshrWaiter> out;
    m.fill(m.find(0x1000 + 0x80 * 2), out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_FALSE(m.hasEntry(0x1000 + 0x80 * 2));
    EXPECT_EQ(m.size(), std::size_t(n - 1));

    for (int i = 0; i < n; ++i) {
        if (i == 2)
            continue;
        const int e = m.find(0x1000 + 0x80 * i);
        ASSERT_GE(e, 0) << "line " << i << " lost";
        EXPECT_EQ(m.isDirtyOnFill(e), i % 2 == 1) << "line " << i;
        std::vector<MshrWaiter> w;
        m.fill(e, w);
        ASSERT_EQ(w.size(), std::size_t(i % 4 + 1)) << "line " << i;
        for (int k = 0; k <= i % 4; ++k) {
            EXPECT_EQ(w[k].warpId, i);
            EXPECT_EQ(w[k].slotId, k);
        }
    }
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.totalWaiters(), 0u);
}

TEST(Mshr, AllocateFillChurnKeepsCountsExact)
{
    // Ten times the capacity cycled through allocate/fill, filling in
    // a scrambled order: size() and totalWaiters() must track a
    // reference model exactly at every step.
    constexpr std::uint32_t cap = 8;
    MshrTable m(cap, 4);
    std::deque<std::pair<Addr, std::size_t>> model; // line, waiters
    std::size_t model_waiters = 0;
    Addr next_line = 0x4000;
    std::uint64_t x = 12345;
    for (std::uint32_t step = 0; step < 10 * cap; ++step) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        if (m.full() || (!model.empty() && (x >> 33) % 3 == 0)) {
            const std::size_t pick = (x >> 40) % model.size();
            std::vector<MshrWaiter> out;
            m.fill(m.find(model[pick].first), out);
            EXPECT_EQ(out.size(), model[pick].second);
            model_waiters -= model[pick].second;
            model.erase(model.begin() + static_cast<long>(pick));
        }
        const Addr line = next_line;
        next_line += 0x80;
        const int e = m.allocate(line);
        const std::size_t w = 1 + (x >> 20) % 4;
        for (std::size_t k = 0; k < w; ++k)
            m.addWaiter(e, MshrWaiter{});
        model.emplace_back(line, w);
        model_waiters += w;
        ASSERT_EQ(m.size(), model.size()) << "step " << step;
        ASSERT_EQ(m.totalWaiters(), model_waiters) << "step " << step;
    }
}
