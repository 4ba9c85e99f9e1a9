/**
 * @file
 * CacheModel: the shared engine behind the private L1 data cache, the
 * L1 instruction cache and each shared L2 bank.
 *
 * The model reproduces the queueing structure of the paper's Fig. 2:
 * a tag array with allocate-on-miss reservation, an MSHR table with
 * merging, a bounded miss queue toward the next level, an optional
 * bounded response queue toward the reply network, and an optional
 * shared data port of finite width. Every way an access can fail maps
 * onto one of the stall causes the paper quantifies in Figs. 8 and 9:
 *
 *   StallMshrFull      -> "mshr"
 *   StallLineAlloc     -> "cache"   (no replaceable line in the set)
 *   StallMissQueueFull -> "bp-DRAM" at L2 / "bp-L2" at L1
 *   StallPortBusy      -> "port"    (L2 data port contention)
 *   StallRespQueueFull -> "bp-ICNT" (reply network back-pressure)
 *
 * The owner presents at most one access per cycle via access(); a
 * stalled access must be retried, and each failed attempt is counted
 * as one stalled cycle attributed to its cause.
 */

#ifndef BWSIM_CACHE_CACHE_HH
#define BWSIM_CACHE_CACHE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/mshr.hh"
#include "common/intmath.hh"
#include "cache/tag_array.hh"
#include "common/types.hh"
#include "mem/mem_fetch.hh"
#include "sim/queue.hh"

namespace bwsim
{

namespace stats
{
class Group;
}

/** Smallest data-movement quantum the model tracks: one 32 B memory
 *  transaction, which is also the sector size of the paper's sectored
 *  variant. Demand footprints are rounded up to this. */
constexpr std::uint32_t kDemandQuantumBytes = 32;

/**
 * The one demand-sizing policy of the bypass/sectored variants: a
 * demanded byte footprint rounded up to whole @p quantum units and
 * capped at the line (0, or anything >= the line, means the whole
 * line). Shared by the LSU's per-access demand and the cache's
 * fetch/reply sizing so the two cannot drift apart.
 */
inline std::uint32_t
demandTransferBytes(std::uint32_t demand, std::uint32_t quantum,
                    std::uint32_t line_bytes)
{
    if (demand == 0 || demand >= line_bytes)
        return line_bytes;
    return std::min<std::uint32_t>(
        line_bytes,
        static_cast<std::uint32_t>(roundUp(demand, quantum)));
}

/** Write handling policy (paper Table I). */
enum class WritePolicy : std::uint8_t
{
    WriteEvict, ///< L1D: write-through, evict on write hit
    WriteBack,  ///< L2: write-back with write-allocate
    ReadOnly,   ///< L1I: writes are illegal
};

/** Configuration for one CacheModel instance. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 16 * 1024;
    std::uint32_t lineBytes = 128;
    std::uint32_t assoc = 4;
    WritePolicy writePolicy = WritePolicy::WriteEvict;
    std::uint32_t mshrEntries = 32;
    std::uint32_t mshrMaxMerge = 8;
    std::uint32_t missQueueEntries = 8;
    /** 0 disables the response queue (L1 replies return via the core). */
    std::uint32_t respQueueEntries = 0;
    /** Cycles from a hit access to data availability. */
    std::uint32_t hitLatency = 1;
    /** Data-port width in bytes/cycle; 0 models an unconstrained port. */
    std::uint32_t portBytesPerCycle = 0;
    /** Set-index divisor for banks of line-interleaved caches (the
     *  total bank count), so sets are indexed on bank-local lines. */
    std::uint32_t indexDivisor = 1;
    /**
     * L1 read-bypass (§VI mitigation): read misses allocate nothing --
     * no line reservation, no MSHR entry -- and go straight to the
     * miss queue with a demand-sized fetch; the reply completes the
     * waiting LSU slot without filling the cache.
     */
    bool bypassReads = false;
    /**
     * Sector size in bytes (0 = unsectored): data movement below this
     * cache happens in sectors -- demand-sized read fetches/replies
     * and no fetch-on-write for sector-aligned partial stores. Tags
     * stay line-granular (an optimistic sector model: a fill
     * validates the whole line for tag purposes; only the bytes moved
     * are accounted).
     */
    std::uint32_t sectorBytes = 0;
};

/** Result of presenting one access to the cache. */
enum class CacheOutcome : std::uint8_t
{
    HitServiced,    ///< read hit serviced (or L2 write hit absorbed)
    MissIssued,     ///< new fill requested; packet entered miss queue
    MissMerged,     ///< merged into an in-flight MSHR entry
    WriteForwarded, ///< write-evict: store pushed toward the next level
    WriteAllocated, ///< write-back: write miss allocated, fetch issued
    WriteMerged,    ///< write-back: write absorbed by a pending fill
    StallMshrFull,
    StallLineAlloc,
    StallMissQueueFull,
    StallPortBusy,
    StallRespQueueFull,
};

const char *cacheOutcomeName(CacheOutcome o);
bool isStallOutcome(CacheOutcome o);

/** Aggregated stall causes in Fig. 8 / Fig. 9 order. */
enum class CacheStallCause : unsigned
{
    RespQueueFull = 0, ///< bp-ICNT (L2 only)
    PortBusy,          ///< port (L2 only)
    LineAlloc,         ///< cache
    MshrFull,          ///< mshr
    MissQueueFull,     ///< bp-DRAM at L2, bp-L2 at L1
    NumCauses
};

constexpr unsigned numCacheStallCauses =
    static_cast<unsigned>(CacheStallCause::NumCauses);

const char *cacheStallCauseName(CacheStallCause c);

/** One access presented by the owner (LSU, fetch unit, or L2 front). */
struct CacheAccess
{
    Addr lineAddr = 0;
    bool write = false;
    std::uint32_t storeBytes = 0;
    /** Demanded bytes within the line for reads (0 = whole line);
     *  sizes the fetch/reply under the bypass/sectored variants. */
    std::uint32_t dataBytes = 0;
    /** L1: identifies the waiter to wake on fill. */
    int warpId = -1;
    int slotId = -1;
    bool isInstFetch = false;
    /** L2: the arriving packet; null for L1 accesses. */
    MemFetch *mf = nullptr;
};

/** Plain counters kept by the cache (hot path; dumped on demand). */
struct CacheCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t bypassedReads = 0; ///< of readMisses: allocated nothing
    std::uint64_t mshrMerges = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t writesForwarded = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t fills = 0;
    std::array<std::uint64_t, numCacheStallCauses> stallCycles{};

    std::uint64_t
    totalStallCycles() const
    {
        std::uint64_t n = 0;
        for (auto c : stallCycles)
            n += c;
        return n;
    }

    double missRate() const;
};

class CacheModel
{
  public:
    /**
     * @param params geometry and policy
     * @param allocator shared packet allocator (downstream packets)
     * @param core_id id stamped on generated packets (-1 for L2)
     */
    CacheModel(const CacheParams &params, MemFetchAllocator *allocator,
               int core_id);

    const CacheParams &params() const { return cfg; }
    const CacheCounters &counters() const { return ctr; }

    /**
     * Register this cache's counters as a child group @p name of
     * @p parent (stats are bound views; the hot-path counters stay
     * plain). Call once, after construction.
     */
    void registerStats(stats::Group &parent, const std::string &name);

    /**
     * Present one access. At most one call per cycle; a stall outcome
     * means nothing changed and the access must be retried.
     *
     * @param now owner-domain cycle (LRU, port and latency bookkeeping)
     * @param now_ps global time for packet timestamps
     */
    CacheOutcome access(const CacheAccess &acc, Cycle now, double now_ps);

    /**
     * Deliver a fill from the next level. Returns false (and changes
     * nothing) if the response queue lacks room for the woken waiters;
     * retry next cycle. On success the waiters are appended to
     * @p woken (L1 consumers) or moved into the response queue (L2).
     */
    bool fill(MemFetch *mf, Cycle now, double now_ps,
              std::vector<MshrWaiter> &woken);

    /** @name Miss queue (owner drains toward the next level) */
    /**@{*/
    bool missQueueEmpty() const { return missQ.empty(); }
    std::size_t missQueueSize() const { return missQ.size(); }
    MemFetch *missQueueFront() { return missQ.front(); }
    MemFetch *missQueuePop() { ++ver; return missQ.pop(); }
    /**@}*/

    /**
     * Monotonic state version: bumped by every mutation that can
     * change a future access()/fill() outcome (accepted accesses,
     * applied fills, queue pops). A *stalled* access leaves the
     * version untouched, so owners retrying a blocked access may
     * memoize (version, access) -> stall cause and replay
     * countStall() without re-probing -- except for StallPortBusy,
     * which depends on the current cycle and must always be retried
     * for real.
     */
    std::uint64_t version() const { return ver; }

    /** @name Response queue (L2 owner injects into the reply network) */
    /**@{*/
    bool respQueueReady(Cycle now) const
    {
        return respQ.ready(now);
    }
    std::size_t respQueueSize() const { return respQ.size(); }
    /** Ready time of the head response (requires non-empty). */
    Cycle respQueueFrontReady() const { return respQ.frontReady(); }
    MemFetch *respQueuePop() { ++ver; return respQ.pop(); }
    /**@}*/

    /** Account one stalled cycle against @p cause (owner-observed). */
    void
    countStall(CacheStallCause cause)
    {
        ++ctr.stallCycles[static_cast<unsigned>(cause)];
    }

    /**
     * Account @p n stalled cycles against @p cause in one shot: the
     * bulk charge for a sleeping SM or L2 bank's memoized retry. Only
     * valid for causes the memo proves constant over those cycles
     * (never PortBusy).
     */
    void
    countStalls(CacheStallCause cause, std::uint64_t n)
    {
        ctr.stallCycles[static_cast<unsigned>(cause)] += n;
    }

    /** Map a stall outcome to its aggregate cause. */
    static CacheStallCause stallCauseOf(CacheOutcome o);

    /** In-flight fills currently tracked (for tests). */
    std::size_t mshrSize() const { return mshr.size(); }
    std::uint32_t reservedLines() const { return tags.reservedLines(); }
    bool lineValid(Addr addr) const { return tags.isValid(addr); }

  private:
    CacheOutcome handleRead(const CacheAccess &acc, Cycle now,
                            double now_ps);
    CacheOutcome handleWriteEvict(const CacheAccess &acc, Cycle now,
                                  double now_ps);
    CacheOutcome handleWriteBack(const CacheAccess &acc, Cycle now,
                                 double now_ps);

    /** Reserve a line for a fill; may emit a writeback. */
    bool reserveLine(const ProbeOutcome &probe, Addr line_addr, Cycle now,
                     double now_ps, std::uint32_t miss_q_slots_needed);

    /** Try to occupy the data port for one line's worth of transfer. */
    bool tryUsePort(Cycle now);

    /** Fetch/reply size for @p acc's demand, rounded up to @p quantum
     *  and capped at the line. */
    std::uint32_t fetchBytesFor(const CacheAccess &acc,
                                std::uint32_t quantum) const;

    MemFetch *makePacket(AccessType type, Addr line_addr,
                         std::uint32_t store_bytes, const CacheAccess &acc,
                         double now_ps);

    CacheParams cfg;
    MemFetchAllocator *alloc;
    int coreId;

    TagArray tags;
    MshrTable mshr;
    /** An L2 fill's waiters on their way to respQ (reused). */
    std::vector<MshrWaiter> l2Woken;
    BoundedQueue<MemFetch *> missQ;
    TimedQueue<MemFetch *> respQ;
    Cycle portFreeAt = 0;
    std::uint32_t portCyclesPerLine;
    std::uint64_t ver = 0;

    CacheCounters ctr;
};

} // namespace bwsim

#endif // BWSIM_CACHE_CACHE_HH
