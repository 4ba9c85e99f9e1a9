/**
 * @file
 * Gpu: the full modelled chip -- 15 SIMT cores in front of a pluggable
 * MemSystem (crossbars + memory partitions, or one of the paper's
 * ideal-memory models) -- advanced by a multi-domain clock: the core
 * domain, plus the crossbar+L2 and DRAM domains when the MemSystem has
 * components on them (MemSystem::hasMemoryClocks()).
 *
 * The Gpu is also the WorkSource feeding CTAs from the selected
 * WorkloadSpec (synthetic profile, trace replay, or generator probe)
 * to the cores. Which memory hierarchy sits below the
 * L1s is entirely the MemSystem's business (see mem/mem_system.hh):
 * the tick and completion paths here are mode-free, so the bounding
 * experiments of Table II and Fig. 3 are plain configs.
 *
 * Every component registers its counters in the stats tree rooted at
 * the "gpu" group ("core<N>" with "l1d"/"l1i" children, "icnt" with
 * "req"/"reply", "part<N>" with "l2b<B>"/"dram"); harvest() is a
 * declarative mapping from that tree into SimResult, and dumpStats()
 * prints the whole tree (the CLI's --dump-stats).
 */

#ifndef BWSIM_GPU_GPU_HH
#define BWSIM_GPU_GPU_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/sim_result.hh"
#include "mem/mem_fetch.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "smcore/sm_core.hh"
#include "stats/stat.hh"
#include "workloads/workload_spec.hh"

namespace bwsim
{

class Gpu : public WorkSource
{
  public:
    /** Accepts a plain BenchmarkProfile implicitly (synthetic spec). */
    Gpu(const GpuConfig &config, const WorkloadSpec &workload);
    ~Gpu() override;

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Run to completion (or the safety cycle cap) and harvest stats. */
    SimResult run();

    /** Advance a bounded number of core cycles (tests/debugging). */
    void runCycles(std::uint64_t core_cycles);

    /** @name WorkSource (CTA distribution to cores) */
    /**@{*/
    bool hasWork() const override { return ctasRemaining > 0; }
    CtaWork takeCta(int core_id) override;
    /**@}*/

    /** @name Introspection for tests and the analysis framework */
    /**@{*/
    const GpuConfig &config() const { return cfg; }
    const WorkloadSpec &workload() const { return spec; }
    const BenchmarkProfile &profile() const { return prof; }
    SmCore &core(int i) { return *cores.at(i); }
    MemSystem &memSystem() { return *memSys; }
    const MemSystem &memSystem() const { return *memSys; }
    /** Null when the config models an ideal (network-free) hierarchy. */
    Interconnect *interconnect() { return memSys->interconnect(); }
    const MemFetchAllocator &allocator() const { return alloc; }
    std::uint64_t coreCycles() const { return coreCycleCount; }
    bool allWorkDone() const;
    SimResult harvest() const;
    /**@}*/

    /** @name The statistics tree rooted at this chip ("gpu") */
    /**@{*/
    stats::Group &statsTree() { return statsRoot; }
    const stats::Group &statsTree() const { return statsRoot; }
    /** Print every stat as "gpu.<path>.<stat> value # desc" lines. */
    void dumpStats(std::ostream &os) const;
    /**@}*/

  private:
    void coreTick();
    /** Core-domain quiescence horizon, read off the per-SM sleep
     *  state: edges until the earliest timed wake while every SM
     *  sleeps and no port wake is pending, else 0. */
    std::uint64_t coreQuiesceHorizon();
    /** Advance the core cycle over a skipped span (every SM asleep). */
    void coreSkip(std::uint64_t n);

    /**
     * @name Per-SM sleep (skip scheduler, inside run() only)
     *
     * The core domain as a whole rarely quiesces -- one busy SM pins
     * it -- but most individual SMs spend most cycles provably idle.
     * After its visit, an SM whose own quiesceHorizon() and the
     * MemSystem's coreHorizon() are both positive falls asleep until
     * the earlier of the two expires. coreTick() then visits only the
     * awake SMs plus those MemSystem::coreWakeMask() names, in
     * ascending core order; the slept cycles are charged with one
     * SmCore::skipCycles() when the SM wakes.
     *
     * The mask is exact because of what can change while an SM
     * sleeps. Its own state, its pending misses (outgoingMask) and an
     * ideal pipe's next maturity change only during its own visit,
     * so they are folded into wakeAt (or kept in outgoingMask) when
     * it falls asleep. A reply arriving or its injection port freeing
     * happens at icnt ticks, and reaches it only through the
     * crossbar's eject-ready / inject-full bitmasks behind
     * coreWakeMask().
     *
     * The sleep state also decides the core domain's skip: every SM
     * left awake had a zero horizon at its visit, so the domain can
     * skip only while asleepMask covers every SM and coreWakeMask()
     * is empty, up to nextTimedWake. A skipped span only advances the
     * cycle count; the sleeping SMs' stamps cover it.
     *
     * Invariant: slept cycles are charged before anything reads core
     * counters or horizons -- the wake-up visit and the end of run()
     * (so harvest() and dumpStats() see lockstep-identical state).
     * runCycles() and lockstep run the same loop with nothing ever
     * asleep.
     */
    /**@{*/
    struct CoreSleep
    {
        /** Last core cycle the SM's folded horizon covers (asleep
         *  while the cycle being ticked is at most this). */
        std::uint64_t wakeAt = 0;
        /** Core cycle through which its cycles have been charged:
         *  owed cycles = cycle - sleptFrom. */
        std::uint64_t sleptFrom = 0;
    };
    /** Charge SM @p c's cycles owed through core cycle @p through. */
    void chargeSleep(int c, std::uint64_t through);
    /** Charge every sleeping SM through the current cycle. */
    void flushSleep();
    /** Put SM @p c to sleep if its folded horizon is positive. */
    void maybeSleep(int c);
    /** Sleeping SMs whose wake cycle has come on cycle @p prev + 1. */
    std::uint64_t timedWakes(std::uint64_t prev);
    bool sleepEnabled = false;
    std::vector<CoreSleep> coreSleep;
    std::uint64_t allCores = 0;   ///< one bit per SM
    std::uint64_t asleepMask = 0; ///< SMs asleep right now
    /** SMs holding a pending outgoing miss after their last visit. */
    std::uint64_t outgoingMask = 0;
    /** No sleeping SM's wakeAt is below this (it may run early). */
    std::uint64_t nextTimedWake = kInfiniteHorizon;
    /** SM ticks replaced by bulk charges in the current run(). */
    std::uint64_t sleptCycles = 0;
    /**@}*/

    /**
     * Per-domain tick-cost telemetry (--profile-ticks). Slots are
     * fixed (0 = dram, 1 = icnt, 2 = core), so a chip running on the
     * core clock alone reports zero dram/icnt ticks; the log2Ns histogram
     * buckets one tick's wall cost at floor(log2(ns)), capped at the
     * last bucket. Only populated -- and only registered as a stats
     * group -- when the profiler is enabled, so the default stats
     * tree is byte-identical.
     */
    struct DomainTickProf
    {
        std::uint64_t ticks = 0;
        std::uint64_t nanos = 0;
        std::array<std::uint64_t, 16> log2Ns{};
    };
    static constexpr std::size_t numProfSlots = 3;
    /** Wrap @p fn with the steady_clock probe for @p slot (identity
     *  when the profiler is disabled). */
    std::function<void()> profiledTick(std::size_t slot,
                                       std::function<void()> fn);
    /** Register the "tick_profile" stats group (enabled runs only). */
    void registerTickProfileStats();

    GpuConfig cfg;
    WorkloadSpec spec;
    /** Shape/name shorthand; always a copy of spec.profile. */
    BenchmarkProfile prof;
    MemFetchAllocator alloc;

    MultiClock clocks;
    std::size_t coreDomain = 0;
    std::uint64_t coreCycleCount = 0;

    /** Root of the stats tree; components register into it below. */
    stats::Group statsRoot{"gpu"};

    std::vector<std::unique_ptr<SmCore>> cores;
    std::unique_ptr<MemSystem> memSys;

    int ctasRemaining = 0;
    std::uint64_t ctaSeq = 0;
    bool resultTimedOut = false;

    std::array<DomainTickProf, numProfSlots> tickProf{};
};

} // namespace bwsim

#endif // BWSIM_GPU_GPU_HH
