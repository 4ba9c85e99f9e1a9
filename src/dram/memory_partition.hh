/**
 * @file
 * MemoryPartition: one of the six memory partitions of Fig. 2 -- two
 * L2 banks (with their access queues, MSHRs, miss queues and response
 * queues) in the interconnect clock domain, and a GDDR5 channel in the
 * DRAM clock domain.
 *
 * Per-L2-cycle flow, per bank:
 *   1. drain the bank's response queue into the reply crossbar
 *   2. apply one DRAM (or ideal-DRAM) fill
 *   3. process the head of the access queue (stall causes counted by
 *      the CacheModel: bp-ICNT / port / cache / mshr / bp-DRAM)
 *   4. drain the bank's miss queue toward the DRAM scheduler queue
 *   5. pull ejected request-network packets into the access queue
 *
 * The access queue applies the fixed L2 service latency ("ropLatency")
 * that makes an uncongested L1 miss cost ~120 core cycles (§II-A);
 * the DRAM channel adds ~100 more for L2 misses.
 *
 * In ideal-DRAM mode (the paper's P_DRAM configuration in Table II)
 * the channel is replaced by an unbounded fixed-latency pipe: the L2
 * miss path never back-pressures and every fill arrives a constant
 * ~100 core cycles later.
 *
 * Per-bank and per-channel sleep (skip scheduler, inside Gpu::run()
 * only): a bank or channel whose own horizon is positive after its
 * tick stops ticking and is charged its owed cycles in one bulk step
 * when it wakes. What may change while a bank sleeps, and what wakes
 * it:
 *   - its own state (cache, queues, memos) changes only during its
 *     own tick, so the access-queue head's ready time and -- when the
 *     reply port has room, which only its own injections take away --
 *     the response head's ready time are folded into one wake cycle;
 *   - a request landing in its ejection queue (request network
 *     ejectReadyMask(), unless its access queue is full), its reply
 *     port freeing (reply network injectFullMask() bit clearing) and
 *     the DRAM scheduler queue regaining space (for a blocked miss
 *     queue) happen at other ticks and wake it by port mask;
 *   - the shared return head (or the P_DRAM pipe's ready head) naming
 *     it while its fill memo is invalid wakes it; the target is
 *     re-read after every bank visit, so a fill that exposes the next
 *     head for a higher bank is served in the same cycle, as in
 *     lockstep.
 * A sleeping channel's state changes only at its own ticks and at the
 * L2 side's push() and returnPop(); the L2 side wakes it (charging
 * its owed cycles against the state before the change) just before
 * either, and time covers the rest (DramChannel::horizon()).
 */

#ifndef BWSIM_DRAM_MEMORY_PARTITION_HH
#define BWSIM_DRAM_MEMORY_PARTITION_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "dram/dram_channel.hh"
#include "icnt/crossbar.hh"
#include "mem/addr_map.hh"
#include "sim/clock.hh"
#include "sim/queue.hh"
#include "stats/occupancy_hist.hh"

namespace bwsim
{

struct PartitionParams
{
    int partitionId = 0;
    std::uint32_t banksPerPartition = 2;
    std::uint32_t numPartitions = 6;
    /** Per-bank L2 slice parameters (size is per bank). */
    CacheParams l2Bank;
    std::uint32_t accessQueueEntries = 8;
    /** Fixed L2 service pipeline latency in L2 cycles. */
    std::uint32_t ropLatency = 52;
    DramParams dram;
    /** How global bank ids map onto partitions (must agree with the
     *  AddressMap: contiguous blocks under PartitionFirst, stride
     *  numPartitions under BankFirst). */
    L2Interleave interleave = L2Interleave::PartitionFirst;
    /** P_DRAM mode: constant-latency, infinite-bandwidth DRAM. */
    bool idealDram = false;
    /** Ideal-DRAM latency in L2 cycles (~100 core cycles). */
    std::uint32_t idealDramLatency = 50;
};

class MemoryPartition
{
  public:
    MemoryPartition(const PartitionParams &params,
                    MemFetchAllocator *allocator, Interconnect *icnt);

    const PartitionParams &params() const { return cfg; }

    /** Global L2 bank id of local bank @p b. */
    std::uint32_t
    globalBankId(std::uint32_t b) const
    {
        if (cfg.interleave == L2Interleave::BankFirst)
            return static_cast<std::uint32_t>(cfg.partitionId) +
                   b * cfg.numPartitions;
        return cfg.partitionId * cfg.banksPerPartition + b;
    }

    /**
     * Register this partition's L2 banks, DRAM channel (when one
     * exists) and queue-occupancy histograms as a child group
     * "part<N>" of @p parent. Call once, after construction.
     */
    void registerStats(stats::Group &parent);

    /** One interconnect/L2 clock cycle. */
    void tickL2(double now_ps);

    /** One DRAM command-clock cycle. */
    void tickDram(double now_ps);

    /**
     * Switch per-bank / per-channel sleep on or off. Switching it off
     * charges every owed cycle, so counters read afterwards match a
     * lockstep run.
     */
    void setSleepEnabled(bool on);
    /** Bank ticks a sleeping bank did not run so far (its cycles
     *  are charged in bulk instead). */
    std::uint64_t sleptBankTicks() const { return bankSleptTicks; }
    /** Channel ticks a sleeping channel did not run so far. */
    std::uint64_t sleptDramTicks() const { return dramSleptTicks; }

    /** All queues, banks and the channel are empty. */
    bool drained() const;

    /** @name Instrumentation */
    /**@{*/
    const CacheModel &l2Bank(std::uint32_t b) const { return *banks.at(b); }
    CacheModel &l2Bank(std::uint32_t b) { return *banks.at(b); }
    const DramChannel &dram() const { return *channel; }

    /** Data bytes this partition moved across the L2<->DRAM boundary
     *  (bus bytes with a real channel, pipe bytes in P_DRAM mode). */
    std::uint64_t
    dramDataBytes() const
    {
        if (channel) {
            return channel->counters().bytesRead +
                   channel->counters().bytesWritten;
        }
        return idealBytesRead + idealBytesWritten;
    }
    /**@}*/

  private:
    /** Steps 1-5 of the file comment for local bank @p b. */
    void tickBank(std::uint32_t b, double now_ps);
    void pullFromNetwork(std::uint32_t b);

    /**
     * Port conditions that end a bank's positive horizon early (its
     * time-based events are in the horizon itself).
     */
    enum PortWake : std::uint8_t
    {
        WakeOnRequest = 1,   ///< a request lands in its ejection queue
        WakeOnReplyPort = 2, ///< its reply-network port frees
        WakeOnDramSpace = 4, ///< the DRAM scheduler queue frees a slot
    };
    /**
     * Local bank @p b's own quiescence horizon: L2 cycles from the
     * next tick until one could do more than replay frozen state. 0
     * whenever a real attempt is possible (an unmemoized access, a
     * miss draining into a non-full DRAM queue, a request-network
     * pull into a non-full access queue, a response injecting into a
     * non-full reply port), else the earliest ready time among its
     * response and access queues. A ready access-queue head with a
     * valid stall memo does NOT pin the horizon: its tick charges
     * exactly one countStall, which wakeBank() charges in bulk.
     * Blocked-on-full paths are frozen no-ops until another tick
     * frees the port they wait on; when the horizon is positive,
     * @p wakes receives the PortWake bits naming those ports. The
     * shared fill path is fillWake()'s business: a memoized fill
     * refusal is a frozen no-op until the bank mutates, which only
     * its own tick does.
     */
    std::uint64_t bankHorizon(std::uint32_t b, std::uint8_t &wakes) const;
    /** L2 cycles from the next tick until @p ready (0 if due). */
    std::uint64_t
    l2Until(Cycle ready) const
    {
        return ready > l2Cycle + 1
                   ? static_cast<std::uint64_t>(ready - l2Cycle - 1)
                   : std::uint64_t(0);
    }

    /** @name Per-bank and per-channel sleep (see file comment) */
    /**@{*/
    struct BankSleep
    {
        /** Last L2 cycle the bank's folded horizon covers. */
        Cycle wakeAt = 0;
        /** L2 cycle through which its cycles have been charged. */
        Cycle sleptFrom = 0;
    };
    /** Global-id bit of local bank @p b. */
    std::uint64_t
    bankBit(std::uint32_t b) const
    {
        return std::uint64_t(1) << globalBankId(b);
    }
    /** Sleeping banks whose port or time wake has come this cycle. */
    std::uint64_t wokenBanks();
    /** The sleeping bank the ready fill head names, if its fill memo
     *  is invalid (as a global-id bit; 0 if none). */
    std::uint64_t fillWake() const;
    /** Put local bank @p b to sleep if its own horizon is positive. */
    void maybeSleepBank(std::uint32_t b);
    /** Charge local bank @p b's owed cycles through @p through and
     *  mark it awake. */
    void wakeBank(std::uint32_t b, Cycle through);
    /** Charge the sleeping channel's owed cycles through DRAM cycle
     *  @p through and mark it awake. */
    void wakeChannel(Cycle through);

    bool sleepOn = false;
    /** Masks over global bank ids (the ids the crossbars use): this
     *  partition's banks, the sleeping ones, and the sleeping ones
     *  each PortWake condition wakes. */
    std::uint64_t allBanks = 0;
    std::uint64_t asleep = 0;
    std::uint64_t wakeOnRequest = 0;
    std::uint64_t wakeOnReplyPort = 0;
    std::uint64_t wakeOnDramSpace = 0;
    /** No sleeping bank's wakeAt is below this (it may run early). */
    Cycle nextTimedWake = kInfiniteHorizon;
    std::vector<BankSleep> bankSleep;
    /** Local bank index of each global bank id in this partition. */
    std::vector<std::uint8_t> localBank;
    bool chanAsleep = false;
    Cycle chanWakeAt = 0;
    Cycle chanSleptFrom = 0;
    std::uint64_t bankSleptTicks = 0;
    std::uint64_t dramSleptTicks = 0;
    /**@}*/

    PartitionParams cfg;
    MemFetchAllocator *alloc;
    Interconnect *icnt;

    std::vector<std::unique_ptr<CacheModel>> banks;
    /** Per-bank access queue with the fixed L2 service latency. */
    std::vector<TimedQueue<MemFetch *>> accessQ;
    std::unique_ptr<DramChannel> channel;
    /** Ideal-DRAM pipe (P_DRAM mode). */
    DelayPipe<MemFetch *> idealPipe;

    Cycle l2Cycle = 0;
    Cycle dramCycle = 0;

    /**
     * @name Per-bank retry memos (congested-path fast paths)
     *
     * A refused fill() has zero side effects and fails on pure cache
     * state (response-queue space vs. MSHR waiters), and a stalled
     * access() nets out to exactly one countStall() whose cause is a
     * pure function of cache state -- except PortBusy, which depends
     * on the clock and is never memoized. Both outcomes are therefore
     * replayable while CacheModel::version() is unchanged: every
     * unblocking transition bumps the version, and the blocked head
     * packet cannot change underneath the memo because it is only
     * popped on success, which also bumps the version. ~0 = invalid.
     */
    /**@{*/
    std::vector<std::uint64_t> fillMemoVer;
    std::vector<std::uint64_t> accessMemoVer;
    std::vector<std::uint8_t> accessMemoCause;
    /**@}*/

    /** L2<->DRAM bytes through the ideal pipe (P_DRAM mode only). */
    std::uint64_t idealBytesRead = 0;
    std::uint64_t idealBytesWritten = 0;

    stats::OccupancyHist accessQHist;
    stats::OccupancyHist dramQHist;
};

} // namespace bwsim

#endif // BWSIM_DRAM_MEMORY_PARTITION_HH
