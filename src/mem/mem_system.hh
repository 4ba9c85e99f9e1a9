/**
 * @file
 * MemSystem: the seam between the SIMT cores and everything below
 * their L1 caches.
 *
 * The paper's method is to re-model the below-L1 hierarchy in
 * controlled ways -- the full crossbar+L2+GDDR5 system, the P-inf and
 * P_DRAM bounds of Table II, and the fixed-L1-miss-latency sweep of
 * Fig. 3 -- and compare. Each of those is one MemSystem
 * implementation; the Gpu tick/done paths talk only to this interface
 * and contain no per-mode branching, so a new hierarchy variant (an
 * L1-bypass read path, a partition-count-decoupled L2, ...) is a new
 * implementation plus a config knob, not engine surgery.
 *
 * Implementations register every component's counters in the stats
 * tree the Gpu roots at "gpu": NormalMemSystem contributes "icnt"
 * (children "req"/"reply") and "part<N>" (children "l2b<B>" and,
 * when a GDDR5 channel is modelled, "dram", plus the queue-occupancy
 * histograms). Gpu::harvest() reads the tree by name -- it never
 * talks to the components directly -- so any MemSystem that names its
 * groups the same way is measured for free.
 */

#ifndef BWSIM_MEM_MEM_SYSTEM_HH
#define BWSIM_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/tag_array.hh"
#include "dram/memory_partition.hh"
#include "gpu/gpu_config.hh"
#include "icnt/crossbar.hh"
#include "mem/addr_map.hh"
#include "mem/mem_fetch.hh"
#include "sim/clock.hh"
#include "sim/queue.hh"
#include "smcore/sm_core.hh"

namespace bwsim
{

/** Everything below the cores' L1 caches, behind one interface. */
class MemSystem
{
  public:
    virtual ~MemSystem() = default;

    /**
     * Deliver any ready responses to @p core. Called once per core
     * per core cycle, before the core ticks.
     *
     * @param core_cycle the core-domain cycle count (latency pipes)
     */
    virtual void deliverResponses(int core_id, SmCore &core,
                                  double now_ps,
                                  std::uint64_t core_cycle) = 0;

    /**
     * Drain @p core's outgoing miss traffic into this memory system.
     * Called once per core per core cycle, after the core ticks.
     */
    virtual void acceptRequests(int core_id, SmCore &core, double now_ps,
                                std::uint64_t core_cycle) = 0;

    /**
     * Whether any component runs on the interconnect/L2 and DRAM
     * clocks. The Gpu registers those two domains, and calls the
     * icnt/DRAM hooks below, only when this is true; otherwise the
     * chip runs on the core clock alone.
     */
    virtual bool hasMemoryClocks() const = 0;

    /** One interconnect/L2 clock cycle (hasMemoryClocks() only). */
    virtual void icntTick(double now_ps);

    /** One DRAM command-clock cycle (hasMemoryClocks() only). */
    virtual void dramTick(double now_ps);

    /** No request or response is buffered anywhere below the cores. */
    virtual bool drained() const = 0;

    /**
     * @name Core-side horizons (per-SM sleep)
     *
     * What the Gpu needs to put an SM to sleep on its own horizon and
     * to wake it exactly. The defaults are maximally conservative
     * (never sleep on this system's account), so an implementation
     * that does not opt in stays correct under the skip scheduler.
     */
    /**@{*/
    /**
     * Edges until a *time-based* event in this system could act on
     * @p core_id's tick (an ideal-pipe entry maturing). Events that
     * depend on shared port state are coreWakeMask()'s business.
     */
    virtual std::uint64_t
    coreHorizon(int core_id, std::uint64_t core_cycle) const
    {
        (void)core_id;
        (void)core_cycle;
        return 0;
    }
    /**
     * Cores whose next tick this system could act on right now
     * through port state: a reply ready to deliver, or a pending miss
     * (bit set in @p outgoing, one bit per core) that the request port
     * can take. A pending miss facing a full port is a pure no-op
     * attempt, frozen until an icnt tick frees the port, so that core
     * may keep sleeping. The conservative default wakes every core
     * with a pending miss.
     *
     * Per-SM sleep relies on this split: a sleeping core's pending
     * misses and its coreHorizon() change only during its own visit
     * (deliverResponses / tick / acceptRequests), so the Gpu folds the
     * horizon into the core's wake cycle when it falls asleep and
     * keeps @p outgoing itself. Everything else that can wake it --
     * a reply arriving, its injection port freeing -- must show up in
     * this mask, which is read once per core cycle.
     */
    virtual std::uint64_t
    coreWakeMask(std::uint64_t outgoing) const
    {
        return outgoing;
    }
    /**@}*/

    /**
     * @name Memory-side sleep (skip scheduler, inside Gpu::run() only)
     *
     * With sleep on, each L2 bank and DRAM channel whose own horizon
     * is positive after its tick stops ticking until a time in that
     * horizon comes due or something it waits on changes, and is
     * then charged its owed cycles in one bulk step. A sleeping bank
     * changes only at its own ticks; it is woken by the request
     * network's eject-ready mask (unless its access queue is full),
     * the reply network's inject-full bit clearing, the DRAM queue
     * regaining space (for a blocked miss queue), or the return head
     * naming it with an invalid fill memo. A sleeping channel is
     * woken by time or just before the L2 side pushes to it or pops
     * its return queue. Switching sleep off charges every owed
     * cycle, so it must precede harvest() and any stats read. The
     * default (the ideal hierarchies, which have no banks or
     * channels) is a no-op.
     */
    /**@{*/
    virtual void setSleepEnabled(bool on) { (void)on; }
    /** Ticks replaced by bulk charges so far (telemetry only). */
    struct SleptTicks
    {
        std::uint64_t l2Banks = 0;
        std::uint64_t dramChannels = 0;
    };
    virtual SleptTicks sleptTicks() const { return {}; }
    /**@}*/

    /** @name Introspection (null when the level is not modelled) */
    /**@{*/
    virtual Interconnect *interconnect() { return nullptr; }
    virtual MemoryPartition *partition(int) { return nullptr; }
    virtual int numPartitions() const { return 0; }
    /**@}*/
};

/**
 * The full modelled hierarchy: request/reply crossbars and the memory
 * partitions (L2 banks + GDDR5 channel, or the P_DRAM ideal-DRAM pipe
 * when the config says so -- that distinction lives entirely inside
 * MemoryPartition).
 */
class NormalMemSystem : public MemSystem
{
  public:
    /** @p config must outlive this object (the Gpu's own copy). */
    NormalMemSystem(const GpuConfig &config, MemFetchAllocator *allocator,
                    stats::Group &stats_parent);

    void deliverResponses(int core_id, SmCore &core, double now_ps,
                          std::uint64_t core_cycle) override;
    void acceptRequests(int core_id, SmCore &core, double now_ps,
                        std::uint64_t core_cycle) override;
    bool hasMemoryClocks() const override { return true; }
    void icntTick(double now_ps) override;
    void dramTick(double now_ps) override;
    bool drained() const override;

    /** Every core-side event here is crossbar port state. */
    std::uint64_t
    coreHorizon(int, std::uint64_t) const override
    {
        return kInfiniteHorizon;
    }
    std::uint64_t coreWakeMask(std::uint64_t outgoing) const override;
    void setSleepEnabled(bool on) override;
    SleptTicks sleptTicks() const override;

    Interconnect *interconnect() override { return icnt.get(); }
    MemoryPartition *
    partition(int i) override
    {
        return parts.at(static_cast<std::size_t>(i)).get();
    }
    int numPartitions() const override { return int(parts.size()); }

  private:
    /** Register the per-level bandwidth formulas ("bw" group). */
    void registerBandwidthStats(stats::Group &parent);

    const GpuConfig &cfg;
    AddressMap amap;
    std::unique_ptr<Interconnect> icnt;
    std::vector<std::unique_ptr<MemoryPartition>> parts;
    /** Clock-domain tick counts (bytes/cycle denominators). */
    std::uint64_t icntCycles = 0;
    std::uint64_t dramCycles = 0;
};

/**
 * The idealized below-L1 memory of the paper's bounding experiments:
 * infinite bandwidth, constant latency. Covers P-inf (PerfectMem: an
 * infinite L2 with fixed hit/DRAM latencies, modelled by a perfect
 * tag array) and the Fig. 3 FixedL1Lat mode (every miss returns after
 * one constant latency). Stores vanish into the ideal sink.
 *
 * Nothing here runs on the interconnect or DRAM clocks: all its work
 * happens during a core's own visit, keyed on the core cycle, so the
 * Gpu clocks the core domain alone.
 */
class IdealMemSystem : public MemSystem
{
  public:
    IdealMemSystem(const GpuConfig &config, MemFetchAllocator *allocator,
                   stats::Group &stats_parent);

    /** Deliver the pipe entries matured by @p core_cycle. */
    void deliverResponses(int core_id, SmCore &core, double now_ps,
                          std::uint64_t core_cycle) override;
    /** Drain every miss the core's tick produced, then deliver what
     *  is ready in the same cycle (a zero fixed latency). */
    void acceptRequests(int core_id, SmCore &core, double now_ps,
                        std::uint64_t core_cycle) override;
    bool hasMemoryClocks() const override { return false; }
    bool drained() const override;

    std::uint64_t coreHorizon(int core_id,
                              std::uint64_t core_cycle) const override;
    /** acceptRequests() drains every miss during the core's own
     *  visit, and the pipes mature on coreHorizon()'s time base. */
    std::uint64_t coreWakeMask(std::uint64_t) const override { return 0; }

  private:
    const GpuConfig &cfg;
    MemFetchAllocator *alloc;

    /**
     * Two pipes per core -- one per constant latency class (P-inf L2
     * hits vs DRAM) -- so the FIFO pipes never delay a fast response
     * behind a slow one.
     */
    std::vector<DelayPipe<MemFetch *>> pipesFast; ///< per core
    std::vector<DelayPipe<MemFetch *>> pipesSlow; ///< per core
    std::unique_ptr<TagArray> perfectL2Tags;      ///< PerfectMem only
};

/**
 * Build the MemSystem for @p config.mode and register its stats under
 * @p stats_parent. The only place in the engine that inspects
 * MemoryMode.
 */
std::unique_ptr<MemSystem> makeMemSystem(const GpuConfig &config,
                                         MemFetchAllocator *allocator,
                                         stats::Group &stats_parent);

} // namespace bwsim

#endif // BWSIM_MEM_MEM_SYSTEM_HH
