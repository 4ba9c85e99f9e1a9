/**
 * @file
 * One memory partition's GDDR5 channel: banks, FR-FCFS scheduling,
 * a shared command bus (one command per cycle) and a shared data bus.
 *
 * Scheduling follows the paper's baseline First-Ready First-Come-
 * First-Serve policy: the oldest request whose column command can
 * legally issue right now (an open-row hit) wins; otherwise the oldest
 * request that needs an activate (or precharge) gets one. Every issued
 * command passes through an independent legality checker that panics
 * on any timing-constraint violation, in every build.
 *
 * Bandwidth efficiency -- the fraction of pending-work cycles in which
 * the data bus is actually transferring -- is the §IV-B1 statistic
 * (41% average, 65% maximum in the paper).
 */

#ifndef BWSIM_DRAM_DRAM_CHANNEL_HH
#define BWSIM_DRAM_DRAM_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/dram_timing.hh"
#include "mem/mem_fetch.hh"
#include "sim/queue.hh"
#include "stats/occupancy_hist.hh"

namespace bwsim
{

namespace stats
{
class Group;
}

/** DRAM command kinds (for the legality checker and stats). */
enum class DramCmd : std::uint8_t
{
    Activate,
    Precharge,
    ReadCol,
    WriteCol,
};

/** Independent re-checker of DRAM timing legality. */
class DramLegalityChecker
{
  public:
    explicit DramLegalityChecker(const DramTiming &t, std::uint32_t banks,
                                 std::uint32_t burst_cycles);

    /** Validate and record one command; panics on violation. */
    void onCommand(DramCmd cmd, std::uint32_t bank, Cycle now);

  private:
    DramTiming t;
    std::uint32_t burst;
    struct BankHist
    {
        Cycle lastAct = 0;
        Cycle lastPre = 0;
        Cycle lastRead = 0;
        Cycle lastWrite = 0;
        bool everAct = false, everPre = false;
        bool everRead = false, everWrite = false;
        bool open = false;
    };
    std::vector<BankHist> banks;
    Cycle lastAnyAct = 0;
    bool everAnyAct = false;
    Cycle lastAnyCol = 0;
    bool everAnyCol = false;
};

/** Counters for one DRAM channel. */
struct DramCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    /** Data bytes moved over the bus (the L2<->DRAM boundary bytes;
     *  sector-sized read bursts under the sectored variant). */
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t dataBusBusyCycles = 0;
    std::uint64_t pendingCycles = 0; ///< cycles with >=1 queued request
    std::uint64_t cycles = 0;

    /** Bandwidth efficiency per §IV-B1. */
    double
    efficiency() const
    {
        return pendingCycles
                   ? static_cast<double>(dataBusBusyCycles) /
                         static_cast<double>(pendingCycles)
                   : 0.0;
    }

    /** Fraction of column accesses that did not need a fresh activate. */
    double
    rowHitRate() const
    {
        std::uint64_t cols = reads + writes;
        if (cols == 0)
            return 0.0;
        std::uint64_t acts = std::min(activates, cols);
        return static_cast<double>(cols - acts) /
               static_cast<double>(cols);
    }
};

class DramChannel
{
  public:
    DramChannel(const DramParams &params, MemFetchAllocator *allocator,
                int partition_id);

    const DramParams &params() const { return cfg; }
    const DramCounters &counters() const { return ctr; }

    /** Register this channel's counters as a child group "dram" of
     *  @p parent. Call once, after construction. */
    void registerStats(stats::Group &parent);

    /** Room in the FR-FCFS scheduler queue? */
    bool canAccept() const { return queuedCount < cfg.schedQueueEntries; }

    /** Enqueue a request (read fetch or writeback). */
    void push(MemFetch *mf);

    /** One command-clock cycle: retire data, issue one command. */
    void tick(double now_ps);

    /** @name Read-return queue toward the L2 fill path */
    /**@{*/
    bool returnReady() const { return !returnQ.empty(); }
    MemFetch *returnFront() { return returnQ.front(); }
    /** Head of the return queue without popping (fill-wake probes). */
    const MemFetch *returnPeek() const { return returnQ.front(); }
    MemFetch *returnPop();
    /**@}*/

    /**
     * Quiescence horizon (per-channel sleep). With an empty scheduler
     * queue, the earliest write-drain or read-return retirement
     * bounds the dead span (landed returns wait on the L2 fill path,
     * not on channel ticks). With requests queued, the bus-sleep scan
     * computes the earliest cycle any FR-FCFS command can legally
     * issue from the frozen bank/bus/channel gates: until then every
     * tick only charges one pendingCycles, which skipCycles() charges
     * in bulk. Gates are absolute cycle stamps mutated only by issued
     * commands; pushes and return pops come from the L2 side, which
     * wakes a sleeping channel first, and in-channel read landings
     * keep returnQ.size()+returnsInFlight constant, so a
     * return-blocked read stays blocked for the whole span.
     */
    std::uint64_t horizon() const;

    /**
     * Charge @p n slept command cycles. The queue occupancy is frozen
     * across them, so each would have charged one pendingCycles iff a
     * request is queued.
     */
    void
    skipCycles(std::uint64_t n)
    {
        cycle += n;
        ctr.cycles += n;
        if (queuedCount != 0)
            ctr.pendingCycles += n;
    }

    /** Sample scheduler-queue occupancy (the paper's Fig. 5 metric)
     *  for @p cycles consecutive cycles at the current (frozen)
     *  occupancy. */
    void
    sampleOccupancy(stats::OccupancyHist &hist,
                    std::uint64_t cycles = 1) const
    {
        hist.sample(queuedCount, cfg.schedQueueEntries, cycles);
    }

    /** True when no request, burst or return is anywhere in flight. */
    bool drained() const;

  private:
    /**
     * One scheduler-queue entry, held in a fixed slot pool and linked
     * into its bank's FIFO bucket. @p seq is the global arrival order:
     * FR-FCFS ties between banks are broken by the smallest seq, which
     * is provably the same winner the old single-FIFO linear scan
     * found first (command qualification depends only on the entry and
     * on bank/channel state, never on other queued entries).
     */
    struct Request
    {
        MemFetch *mf = nullptr;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        bool write = false;
        std::uint64_t seq = 0;
    };

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Cycle actAllowedAt = 0;
        Cycle colAllowedAt = 0;   ///< earliest column command (tRCD etc.)
        Cycle preAllowedAt = 0;
        Cycle readColAfterWrite = 0; ///< tCDLR gate
    };

    void mapAddress(Addr line_addr, std::uint32_t &bank,
                    std::uint64_t &row) const;
    bool tryIssueColumn(double now_ps);
    bool tryIssueActivate();
    bool tryIssuePrecharge();

    DramParams cfg;
    MemFetchAllocator *alloc;
    int partitionId;

    /** Remove the issued request @p slot from its bank bucket. */
    void releaseSlot(int slot);

    Cycle cycle = 0;
    /** Fixed request pool (schedQueueEntries slots) + free list. */
    std::vector<Request> slots;
    std::vector<int> freeSlots;
    /** Per-bank FIFO buckets of slot indices (the row-indexed view:
     *  the bank is a pure function of the row index). */
    std::vector<std::vector<int>> bankQ;
    /** Banks with >=1 queued request / banks with an open row. */
    std::uint64_t banksWithReqs = 0;
    std::uint64_t openBanks = 0;
    std::size_t queuedCount = 0;
    std::uint64_t pushSeq = 0;
    /** max(CL, WL): latest possible data_start for the bus-saturation
     *  early-out in tryIssueColumn(). */
    std::uint32_t maxCas = 0;
    std::vector<Bank> banks;
    Cycle chanActAllowedAt = 0; ///< tRRD gate
    Cycle chanColAllowedAt = 0; ///< tCCD gate
    Cycle busFreeAt = 0;        ///< data-bus busy-until

    /** Reads travelling CL + burst + return pipe. */
    DelayPipe<MemFetch *> readReturnPipe;
    std::uint32_t returnsInFlight = 0;
    BoundedQueue<MemFetch *> returnQ;
    /** Writes retiring at data-end (packet freed there). */
    DelayPipe<MemFetch *> writeDrainPipe;

    DramLegalityChecker checker;
    DramCounters ctr;
};

} // namespace bwsim

#endif // BWSIM_DRAM_DRAM_CHANNEL_HH
