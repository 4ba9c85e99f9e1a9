/**
 * @file
 * Miss Status Holding Register (MSHR) table with request merging.
 *
 * An MSHR entry tracks one in-flight line fill; further accesses to the
 * same line merge as waiters instead of issuing duplicate fetches.
 * A full table is the "mshr" structural-hazard cause of Figs. 8 and 9;
 * prolonged occupancy under congestion is exactly the resource
 * contention the paper's §IV-A2 describes.
 */

#ifndef BWSIM_CACHE_MSHR_HH
#define BWSIM_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace bwsim
{

class MemFetch;

/**
 * One merged access waiting on an in-flight fill. L1 waiters identify
 * the (warp, LSU-slot) to wake; L2 waiters carry the original request
 * packet so a reply can be routed back to its core.
 */
struct MshrWaiter
{
    int warpId = -1;
    int slotId = -1;
    MemFetch *mf = nullptr;
    bool isInstFetch = false;
};

/**
 * A fixed-capacity flat table: entries live densely in slots
 * [0, size()), so a lookup is one short scan over packed line
 * addresses, and nothing is allocated after the waiter lists have
 * grown to their working size (a completed entry's list keeps its
 * capacity for the next miss). Entries are addressed by the index
 * find() or allocate() returns, so a caller that needs several facts
 * about one entry looks it up once.
 */
class MshrTable
{
  public:
    /**
     * @param num_entries distinct in-flight lines the table can track
     * @param max_merge maximum waiters per entry (including the first)
     */
    MshrTable(std::uint32_t num_entries, std::uint32_t max_merge);

    /** Index of the in-flight entry for @p line_addr, or -1. An
     *  index stays valid until the next fill(). */
    int
    find(Addr line_addr) const
    {
        for (std::uint32_t i = 0; i < live; ++i)
            if (keys[i] == line_addr)
                return static_cast<int>(i);
        return -1;
    }

    /** True if a fill for @p line_addr is already in flight. */
    bool hasEntry(Addr line_addr) const { return find(line_addr) >= 0; }

    /** Allocate an (empty) entry for a new miss and return its index;
     *  the table must not be full. */
    int allocate(Addr line_addr);

    /** Entry @p e can take another waiter. */
    bool
    canMerge(int e) const
    {
        return waiters[checked(e)].size() < maxMerge;
    }

    /** Add a waiter to entry @p e (canMerge(e) must hold). */
    void addWaiter(int e, const MshrWaiter &waiter);

    /** Waiters currently attached to entry @p e. */
    std::size_t
    waiterCount(int e) const
    {
        return waiters[checked(e)].size();
    }

    /** Record that a store merged into entry @p e's pending fill
     *  (write-allocate). */
    void markDirtyOnFill(int e) { dirty[checked(e)] = 1; }

    bool isDirtyOnFill(int e) const { return dirty[checked(e)] != 0; }

    /**
     * Complete entry @p e's fill: appends its waiters to @p out in
     * merge order and removes it. The last entry moves into slot
     * @p e, so every other index is invalidated.
     */
    void fill(int e, std::vector<MshrWaiter> &out);

    std::size_t size() const { return live; }
    std::uint32_t capacity() const { return entries; }
    bool full() const { return live >= entries; }

    /** Total waiters across all entries (for occupancy stats/tests). */
    std::size_t totalWaiters() const;

  private:
    std::size_t
    checked(int e) const
    {
        bwsim_assert(e >= 0 && static_cast<std::uint32_t>(e) < live,
                     "MSHR entry index %d outside [0, %u)", e, live);
        return static_cast<std::size_t>(e);
    }

    std::uint32_t entries;
    std::uint32_t maxMerge;
    std::uint32_t live = 0;
    /** Per slot, dense in [0, live): line, dirty bit, waiter list. */
    std::vector<Addr> keys;
    std::vector<std::uint8_t> dirty;
    std::vector<std::vector<MshrWaiter>> waiters;
};

} // namespace bwsim

#endif // BWSIM_CACHE_MSHR_HH
