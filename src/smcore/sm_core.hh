/**
 * @file
 * SmCore: one highly multithreaded SIMT core (SM) following the
 * baseline of the paper's Fig. 2.
 *
 * Pipeline per core cycle:
 *   - fetch: one I-cache access for the round-robin-next warp with
 *     I-buffer space; a miss parks the warp (fetch hazard);
 *   - issue: two greedy-then-oldest schedulers, one instruction each,
 *     gated by the scoreboard (data hazards) and by functional-unit
 *     capacity (structural hazards);
 *   - execute: ALU/SFU delay pipes clear the scoreboard on completion;
 *   - memory: the LSU buffers up to memPipelineWidth warp memory
 *     instructions awaiting L1 acceptance and presents one coalesced
 *     line access per cycle to the write-evict L1D; completion of an
 *     instruction (its "tail request") is tracked separately so the
 *     LSU slot frees as soon as the L1 has accepted every access;
 *   - a per-cycle issue-stall classification implements Fig. 7.
 *
 * The core also owns the L1I, drains both miss queues toward the
 * interconnect injection port (via the GPU) and consumes reply-network
 * responses (fills).
 *
 * Implementation note: per-warp hot state is mirrored in compact
 * parallel arrays (flags, I-buffer depth) so the per-cycle scheduler
 * and fetch scans stay cache-friendly at 48 warps x 15 cores. The
 * I-buffers and the LSU are fixed rings filled in place, so a tick
 * allocates nothing: a memory instruction's address list is swapped
 * between cursor, I-buffer slot and LSU slot, and each keeps the
 * capacity it had.
 */

#ifndef BWSIM_SMCORE_SM_CORE_HH
#define BWSIM_SMCORE_SM_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"
#include "mem/mem_fetch.hh"
#include "sim/queue.hh"
#include "smcore/isa.hh"
#include "smcore/scoreboard.hh"
#include "smcore/stall.hh"

namespace bwsim
{

namespace stats
{
class Group;
}

/** Warp scheduling policy. */
enum class SchedPolicy : std::uint8_t
{
    Gto, ///< greedy-then-oldest (baseline, Table I)
    Lrr, ///< loose round-robin (for scheduler studies)
};

/** One thread block's worth of work handed to a core. */
struct CtaWork
{
    int numWarps = 0;
    /** Builds the cursor for warp @p warp_in_cta of this CTA. */
    std::function<std::unique_ptr<TraceCursor>(int warp_in_cta)> makeCursor;
};

/** Where cores pull thread blocks from (implemented by the GPU). */
class WorkSource
{
  public:
    virtual ~WorkSource() = default;
    virtual bool hasWork() const = 0;
    virtual CtaWork takeCta(int core_id) = 0;
};

struct CoreParams
{
    int coreId = 0;
    int maxWarps = 48;
    int numSchedulers = 2;
    int ibufferEntries = 2;
    int fetchWidth = 2;
    /** LSU buffer for pending warp memory instructions (Table III). */
    int memPipelineWidth = 10;
    int aluIssuePerCycle = 2;
    int aluInflightCap = 96;
    int sfuInflightCap = 16;
    int maxCtasResident = 6;
    SchedPolicy sched = SchedPolicy::Gto;
    CacheParams l1d;
    CacheParams l1i;
    /** Core clock period, for converting latency samples to cycles. */
    double corePeriodPs = 1e6 / 1400.0;
};

/** Aggregate per-core counters. */
struct CoreCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t activeCycles = 0; ///< cycles before this core finished
    std::uint64_t issuedInsts = 0;
    std::uint64_t issuedCycles = 0;
    std::array<std::uint64_t, numIssueStallCauses> issueStalls{};
    std::uint64_t loadsIssued = 0;
    std::uint64_t storesIssued = 0;
    std::uint64_t l1Accesses = 0;
    /** Bytes this core moved across the L1<->icnt boundary: request
     *  packets drained toward the interconnect and reply packets
     *  delivered back (per-core attribution of the gpu.bw totals). */
    std::uint64_t reqBytesOut = 0;
    std::uint64_t replyBytesIn = 0;
    std::uint64_t ctasCompleted = 0;
    std::uint64_t warpsCompleted = 0;

    /** Memory latency samples (in core cycles, per L1 miss response). */
    double memLatSum = 0;
    std::uint64_t memLatCount = 0;
    double l2HitLatSum = 0;
    std::uint64_t l2HitLatCount = 0;
};

class SmCore
{
  public:
    SmCore(const CoreParams &params, MemFetchAllocator *allocator);

    const CoreParams &params() const { return cfg; }
    const CoreCounters &counters() const { return ctr; }

    /**
     * Register this core's counters (and its L1D/L1I caches') as a
     * child group "core<N>" of @p parent. Call once, after
     * construction.
     */
    void registerStats(stats::Group &parent);
    CacheModel &l1d() { return *l1dCache; }
    CacheModel &l1i() { return *l1iCache; }
    const CacheModel &l1d() const { return *l1dCache; }
    const CacheModel &l1i() const { return *l1iCache; }

    /** Attach the CTA source before the first tick. */
    void setWorkSource(WorkSource *src) { source = src; }

    /** One core clock cycle. */
    void tick(double now_ps);

    /**
     * Quiescence horizon (per-SM sleep): how many upcoming ticks
     * skipCycles() can stand in for. 0 whenever a tick could change
     * state in a way a bulk charge cannot reproduce -- CTA dispatch,
     * retirement, an unmemoized fetch or LSU attempt, an issuable
     * decoded instruction, or the finish latch -- else the earliest
     * ALU/SFU/L1-hit pipe completion. A fetch attempt or buffered LSU
     * access whose stall cause is memoized against the current cache
     * version is NOT a pin: each such cycle is a known counter
     * increment, so the SM may sleep through it and skipCycles()
     * charges the increments in one shot. Also precomputes the
     * (frozen) per-cycle stall classification the slept cycles will
     * be attributed to by skipCycles().
     *
     * The Gpu reads it once per visit, right after the tick, to decide
     * whether the SM sleeps; a sleeping SM's folded wake cycle stands
     * in for it until the SM wakes and is charged, so the horizon is
     * never read with cycles owed.
     */
    std::uint64_t quiesceHorizon();

    /**
     * Charge @p n slept cycles: cycle/active-cycle counters, the
     * frozen issue-stall attribution quiesceHorizon() stashed, plus
     * the memoized per-cycle L1D/L1I stall replays (including the
     * fetch round-robin rotation, integrated in closed form). Valid
     * only within the horizon quiesceHorizon() last reported.
     * Additive: skipCycles(a) then skipCycles(b) equals
     * skipCycles(a + b), so the cycles may be charged in pieces. The
     * Gpu charges a sleeping SM in one call when it wakes (or at the
     * end of the run).
     */
    void skipCycles(std::uint64_t n);

    /** All CTAs issued to this core have retired and pipes are empty. */
    bool done() const;

    /** @name Miss traffic toward the interconnect (GPU drains this) */
    /**@{*/
    bool
    hasOutgoing() const
    {
        return !l1dCache->missQueueEmpty() || !l1iCache->missQueueEmpty();
    }
    MemFetch *peekOutgoing();
    void popOutgoing();
    /**@}*/

    /** Deliver a reply (L1D or L1I fill); frees the packet. */
    void deliverResponse(MemFetch *mf, double now_ps);

  private:
    struct Warp
    {
        std::unique_ptr<TraceCursor> cursor;
        int ctaSlot = -1;
        std::uint64_t age = 0;
    };

    /** Compact per-warp flags mirrored from Warp (hot-path scans). */
    enum WarpFlag : std::uint8_t
    {
        WfInUse = 1,
        WfCursorDone = 2,
        WfWaitingIFetch = 4,
    };

    struct CtaSlot
    {
        bool active = false;
        int warpsLeft = 0;
    };

    /**
     * One warp memory instruction buffered in the LSU. The slot is
     * held only until every coalesced access has been accepted by the
     * L1; completion is then tracked by a PendingMemOp. Only the
     * oldest slot is presented to the L1D and only it is freed, so
     * the slots form a FIFO ring (lsuHead is the oldest).
     */
    struct LsuSlot
    {
        int warpId = -1;
        bool write = false;
        std::vector<Addr> addrs;
        std::uint32_t nextIdx = 0;
        std::uint32_t storeBytes = 32;
        std::uint64_t seq = 0;
        int pendingIdx = -1;
    };

    /** Tracks an issued memory instruction until its tail access
     *  returns (the paper's tail-request semantics). */
    struct PendingMemOp
    {
        bool valid = false;
        int warpId = -1;
        bool write = false;
        int destReg = -1;
        std::uint32_t remaining = 0;
    };

    void maybeDispatchCtas();
    void fetchStage(double now_ps);
    void issueStage();
    void execStage();
    void memStage(double now_ps);
    void retireFinishedWarps();
    void classifyStallCycle();
    /** Decoded warps whose head has no data hazard and whose unit can
     *  take it, given @p alu_issued ALU/SFU issues so far this cycle. */
    std::uint64_t readyHeads(int alu_issued) const;
    /** Fig. 7 cause of a zero-issue cycle in the current state. Only
     *  valid while readyHeads(0) == 0: every decoded warp is then
     *  blocked by a hazard or by its unit. */
    IssueStall stallCause() const;
    void pendingAccessDone(int pending_idx);
    bool lsuHasFreeSlot() const { return lsuOccupied < int(lsu.size()); }
    /** Buffer @p inst at the ring's tail; takes its address list by
     *  swap (@p inst keeps the slot's empty one, capacity and all). */
    void lsuAllocSlot(int warp, WarpInstData &inst);
    int allocPendingOp(int warp, bool write, int dest_reg,
                       std::uint32_t n_accesses);
    void rebuildSchedLists();
    /** Entry @p k (0 = head) of @p warp's I-buffer ring. */
    WarpInstData &ibufAt(int warp, int k);
    void popIbufHead(int warp);
    void integrateFetchRotation(std::uint64_t n);

    CoreParams cfg;
    MemFetchAllocator *alloc;
    WorkSource *source = nullptr;

    std::unique_ptr<CacheModel> l1dCache;
    std::unique_ptr<CacheModel> l1iCache;

    std::vector<Warp> warps;
    std::vector<std::uint8_t> wflags;  ///< WarpFlag bits per warp
    /** I-buffer rings: ibufferEntries slots per warp, warp-major. */
    std::vector<WarpInstData> ibufSlots;
    std::vector<std::uint8_t> ibufHead; ///< ring head per warp
    std::vector<std::uint8_t> ibufCnt;  ///< ring occupancy per warp
    /** Register operands of each warp's I-buffer head (valid iff
     *  ibufCnt>0), for re-deriving its hazard bits. */
    std::vector<std::int16_t> headDest;
    std::vector<std::int16_t> headSrc;
    /** Outstanding memory instructions per warp (SoA: the stall
     *  classification and retire scans never touch struct Warp). */
    std::vector<std::uint32_t> warpPendingLsu;
    /** @name Packed per-warp state (SoA hot-scan masks)
     *  Fetch arbitration, issue selection, the quiescence horizon,
     *  stall classification and retirement are all bitmask
     *  expressions over these instead of walks over the Warp array.
     *  The warp-state masks change wherever wflags/ibufCnt do (see
     *  updateWarpBits); the head masks in syncHead(); the hazard
     *  masks in syncHead() and after every scoreboard change
     *  (refreshDep). Head and hazard bits are only meaningful where
     *  decodedMask is set. */
    /**@{*/
    /** Bit w set iff warp w may attempt a fetch this cycle. */
    std::uint64_t fetchEligible = 0;
    /** Bit w set iff warp w is in use with a non-empty I-buffer. */
    std::uint64_t decodedMask = 0;
    /** Bit w set iff warp w is live and still fetching (cursor not
     *  done, or parked on an I-cache miss). */
    std::uint64_t unfetchedMask = 0;
    /** Bit w set iff warp w is live with outstanding memory ops. */
    std::uint64_t memPendingMask = 0;
    /** Bit w set iff warp w has fetched its whole program and drained
     *  its I-buffer: it retires once its operations complete. */
    std::uint64_t retireCandMask = 0;
    /** Head instruction class: load/store, SFU (else ALU). */
    std::uint64_t headMemMask = 0;
    std::uint64_t headSfuMask = 0;
    /** Head blocked by a pending write, by the kind that owns it
     *  (memory wins, as in Scoreboard::canIssueRegs). */
    std::uint64_t depMemMask = 0;
    std::uint64_t depAluMask = 0;
    /** Warps each scheduler owns (w % numSchedulers == s). */
    std::vector<std::uint64_t> schedMask;
    /**@}*/
    int liveWarps = 0;
    bool retireDirty = false;
    bool schedListDirty = true;
    std::vector<std::vector<int>> schedList; ///< per-sched, age order
    void syncHead(int warp);
    void refreshDep(int warp);
    void updateWarpBits(int warp);

    std::vector<CtaSlot> ctas;
    int activeCtas = 0;
    std::uint64_t ageCounter = 0;
    Scoreboard scoreboard;

    std::vector<LsuSlot> lsu;
    std::uint64_t lsuSeq = 0;
    int lsuHead = 0;
    int lsuOccupied = 0;
    /** Waiters a fill woke (reused across deliverResponse calls). */
    std::vector<MshrWaiter> fillWoken;
    std::vector<PendingMemOp> pendingOps;
    std::vector<int> pendingFree;
    /** L1D hit completions in flight: PendingMemOp index, ready cycle. */
    DelayPipe<int> hitPipe;

    /** Exec pipes: (warp, destReg) completing at a cycle. */
    DelayPipe<std::pair<int, int>> aluPipe;
    DelayPipe<std::pair<int, int>> sfuPipe;
    int aluInflight = 0;
    int sfuInflight = 0;

    Cycle cycle = 0;
    int fetchPtr = 0;
    std::vector<int> greedyWarp; ///< per scheduler
    std::vector<int> lrrPtr;     ///< per scheduler
    bool outgoingToggle = false;

    /** Per-cycle issue bookkeeping for stall classification. */
    int issuedThisCycle = 0;
    int aluIssuedThisCycle = 0;

    /**
     * @name Batched retry memos (congested-path fast paths)
     *
     * A stalled L1 access is a pure function of cache state:
     * re-running it each cycle while nothing changed re-derives the
     * same stall cause. The memos below skip the re-derivation and
     * replay the counter math; every mutation that could change the
     * outcome bumps the cache version, so the replayed values are
     * provably the ones a fresh probe would produce.
     */
    /**@{*/
    /** Memoized stalled L1D access: valid while the L1D version and
     *  the presented access (slot seq, access index) are unchanged
     *  and the cause is state-only (never PortBusy). */
    bool memRetryValid = false;
    std::uint64_t memRetryVer = 0;
    std::uint64_t memRetrySeq = 0;
    std::uint32_t memRetryIdx = 0;
    CacheStallCause memRetryCause = CacheStallCause::MshrFull;
    /** Per-warp memoized stalled I-fetch: valid while the L1I version
     *  is unchanged (the warp's PC cannot move on a stall). */
    std::vector<std::uint64_t> fetchMemoVer;
    std::vector<std::uint8_t> fetchMemoCause;
    /**@}*/

    bool finishedLatched = false;
    /** Stall cause slept cycles are charged to (see quiesceHorizon). */
    IssueStall skipStallCause = IssueStall::Fetch;
    CoreCounters ctr;
};

} // namespace bwsim

#endif // BWSIM_SMCORE_SM_CORE_HH
