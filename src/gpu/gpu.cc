#include "gpu/gpu.hh"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "sim/sim_speed.hh"
#include "sim/tick_profile.hh"
#include "workloads/workload_spec.hh"

namespace bwsim
{

Gpu::Gpu(const GpuConfig &config, const WorkloadSpec &workload)
    : cfg(config), spec(workload), prof(spec.profile)
{
    cfg.validate();
    bwsim_assert(prof.warpsPerCta * prof.maxCtasPerCore <=
                     cfg.maxWarpsPerCore,
                 "profile '%s' oversubscribes warp contexts (%d x %d > %d)",
                 prof.name.c_str(), prof.warpsPerCta, prof.maxCtasPerCore,
                 cfg.maxWarpsPerCore);

    ctasRemaining = prof.numCtas;
    coreSleep.resize(cfg.numCores);
    allCores = ~std::uint64_t(0) >> (64 - cfg.numCores);

    for (int c = 0; c < cfg.numCores; ++c) {
        CoreParams cp = cfg.coreParams(c);
        cp.maxCtasResident = prof.maxCtasPerCore;
        cores.push_back(std::make_unique<SmCore>(cp, &alloc));
        cores.back()->setWorkSource(this);
        cores.back()->registerStats(statsRoot);
    }

    memSys = makeMemSystem(cfg, &alloc, statsRoot);

    // Intra-instant ordering: drains first (DRAM), then the crossbar
    // and L2, then the cores that feed them. A hierarchy with nothing
    // on the memory-side clocks (the ideal ones) runs on the core
    // clock alone: no empty edges to tick or skip.
    const bool mem_clocks = memSys->hasMemoryClocks();
    std::size_t dram_domain = 0, icnt_domain = 0;
    if (mem_clocks) {
        dram_domain = clocks.addDomain("dram", cfg.dramClockMhz,
                                       profiledTick(0, [this] {
                                           memSys->dramTick(clocks.nowPs());
                                       }));
        icnt_domain = clocks.addDomain("icnt", cfg.icntClockMhz,
                                       profiledTick(1, [this] {
                                           memSys->icntTick(clocks.nowPs());
                                       }));
    }
    coreDomain = clocks.addDomain("core", cfg.coreClockMhz,
                                  profiledTick(2, [this] { coreTick(); }));
    registerTickProfileStats();

    clocks.domain(coreDomain)
        .setSkipHooks([this] { return coreQuiesceHorizon(); },
                      [this](std::uint64_t n) { coreSkip(n); });
    if (!mem_clocks)
        return;
    clocks.domain(dram_domain)
        .setSkipHooks([this] { return memSys->dramHorizon(); },
                      [this](std::uint64_t n) {
                          if (memSys->dramSkip(n))
                              recordFusedSpan(n);
                      });
    clocks.domain(icnt_domain)
        .setSkipHooks([this] { return memSys->icntHorizon(); },
                      [this](std::uint64_t n) {
                          if (memSys->icntSkip(n))
                              recordFusedSpan(n);
                      });

    // Which horizons an executed tick can change, following the data
    // flow between domains: a core tick touches the networks' injection
    // side; an icnt tick can ready a core reply, fill its own queues
    // and push to the DRAM scheduler; a DRAM tick can land a return
    // for the L2 fill path. Notably a DRAM tick cannot wake a core
    // (fills travel via the L2/reply network first) and a core tick
    // cannot wake DRAM directly, which is what lets the core domain
    // keep skipping across a long DRAM-busy span.
    clocks.setAffects(coreDomain, {coreDomain, icnt_domain});
    clocks.setAffects(icnt_domain,
                      {coreDomain, icnt_domain, dram_domain});
    clocks.setAffects(dram_domain, {icnt_domain, dram_domain});
}

Gpu::~Gpu() = default;

namespace
{
const char *const kProfSlotNames[] = {"dram", "icnt", "core"};
}

std::function<void()>
Gpu::profiledTick(std::size_t slot, std::function<void()> fn)
{
    if (!tickProfileEnabled())
        return fn;
    return [this, slot, fn = std::move(fn)] {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        DomainTickProf &p = tickProf[slot];
        ++p.ticks;
        p.nanos += static_cast<std::uint64_t>(ns);
        unsigned bucket =
            ns > 0 ? std::min<unsigned>(
                         p.log2Ns.size() - 1,
                         63 - static_cast<unsigned>(__builtin_clzll(
                                  static_cast<unsigned long long>(ns))))
                   : 0;
        ++p.log2Ns[bucket];
    };
}

void
Gpu::registerTickProfileStats()
{
    if (!tickProfileEnabled())
        return;
    stats::Group &tg = statsRoot.createChild("tick_profile");
    for (std::size_t s = 0; s < numProfSlots; ++s) {
        stats::Group &g = tg.createChild(kProfSlotNames[s]);
        DomainTickProf &p = tickProf[s];
        g.bindScalar("ticks", "domain ticks executed (not skipped)",
                     p.ticks);
        g.bindScalar("wall_nanos", "wall nanoseconds spent ticking",
                     p.nanos);
        g.formula("avg_ns_per_tick", "mean wall cost of one tick",
                  [&p] {
                      return p.ticks ? static_cast<double>(p.nanos) /
                                           static_cast<double>(p.ticks)
                                     : 0.0;
                  });
        std::vector<std::string> labels;
        labels.reserve(p.log2Ns.size());
        for (std::size_t i = 0; i < p.log2Ns.size(); ++i)
            labels.push_back(csprintf("ns_ge_%llu",
                                      1ULL << i));
        g.bindVector("tick_cost_log2",
                     "ticks bucketed by floor(log2(wall ns))",
                     p.log2Ns.data(), p.log2Ns.size(), labels);
    }
}

CtaWork
Gpu::takeCta(int core_id)
{
    bwsim_assert(ctasRemaining > 0, "takeCta with no work left");
    --ctasRemaining;
    std::uint64_t seq = ctaSeq++;
    CtaWork work;
    work.numWarps = prof.warpsPerCta;
    const WorkloadSpec *workload = &spec;
    std::uint32_t line = cfg.lineBytes;
    work.makeCursor = [workload, core_id, seq, line](int warp_in_cta) {
        return makeWorkloadCursor(*workload, core_id, seq, warp_in_cta,
                                  line);
    };
    return work;
}

void
Gpu::coreTick()
{
    const std::uint64_t prev = coreCycleCount++;
    const double now_ps = clocks.nowPs();
    std::uint64_t visit = allCores & ~asleepMask;
    if (asleepMask != 0) {
        visit |= memSys->coreWakeMask(outgoingMask);
        if (prev >= nextTimedWake)
            visit |= timedWakes(prev);
    }
    for (std::uint64_t m = visit; m; m &= m - 1) {
        const int c = __builtin_ctzll(m);
        const std::uint64_t bit = std::uint64_t(1) << c;
        SmCore &core = *cores[c];
        if (asleepMask & bit) {
            chargeSleep(c, prev);
            asleepMask &= ~bit;
        }
        memSys->deliverResponses(c, core, now_ps, coreCycleCount);
        core.tick(now_ps);
        memSys->acceptRequests(c, core, now_ps, coreCycleCount);
        outgoingMask = core.hasOutgoing() ? (outgoingMask | bit)
                                          : (outgoingMask & ~bit);
        if (sleepEnabled)
            maybeSleep(c);
    }
}

void
Gpu::maybeSleep(int c)
{
    // Asleep, each cycle's deliver/tick/accept would be no-ops plus
    // the counter charges skipCycles() reproduces, until the SM's own
    // horizon or an ideal pipe's maturity comes due (both fixed until
    // its next visit) or coreWakeMask() names it.
    std::uint64_t h = cores[c]->quiesceHorizon();
    if (h == 0)
        return;
    h = std::min(h, memSys->coreHorizon(c, coreCycleCount));
    if (h == 0)
        return;
    CoreSleep &s = coreSleep[c];
    s.wakeAt = h == kInfiniteHorizon ? kInfiniteHorizon
                                     : coreCycleCount + h;
    s.sleptFrom = coreCycleCount;
    nextTimedWake = std::min(nextTimedWake, s.wakeAt);
    asleepMask |= std::uint64_t(1) << c;
}

std::uint64_t
Gpu::timedWakes(std::uint64_t prev)
{
    std::uint64_t woken = 0;
    nextTimedWake = kInfiniteHorizon;
    for (std::uint64_t m = asleepMask; m; m &= m - 1) {
        const int c = __builtin_ctzll(m);
        if (prev >= coreSleep[c].wakeAt)
            woken |= std::uint64_t(1) << c;
        else
            nextTimedWake = std::min(nextTimedWake, coreSleep[c].wakeAt);
    }
    return woken;
}

void
Gpu::chargeSleep(int c, std::uint64_t through)
{
    CoreSleep &s = coreSleep[c];
    const std::uint64_t owed = through - s.sleptFrom;
    if (owed == 0)
        return;
    cores[c]->skipCycles(owed);
    sleptCycles += owed;
    s.sleptFrom = through;
}

void
Gpu::flushSleep()
{
    for (std::uint64_t m = asleepMask; m; m &= m - 1)
        chargeSleep(__builtin_ctzll(m), coreCycleCount);
}

std::uint64_t
Gpu::coreQuiesceHorizon()
{
    // The per-SM sleep state is the answer. An SM left awake after its
    // visit had a zero horizon (its own or coreHorizon()), so the
    // domain is integrable only while every SM sleeps and no port can
    // wake one -- and then up to the earliest timed wake.
    if (asleepMask != allCores || memSys->coreWakeMask(outgoingMask) != 0)
        return 0;
    return nextTimedWake == kInfiniteHorizon
               ? kInfiniteHorizon
               : nextTimedWake - coreCycleCount;
}

void
Gpu::coreSkip(std::uint64_t n)
{
    // Every SM sleeps through the span: each is charged from its own
    // stamp when it wakes, or at the end of run().
    coreCycleCount += n;
}

bool
Gpu::allWorkDone() const
{
    if (ctasRemaining > 0)
        return false;
    for (const auto &c : cores)
        if (!c->done())
            return false;
    if (alloc.outstanding() != 0)
        return false;
    return memSys->drained();
}

void
Gpu::runCycles(std::uint64_t core_cycles)
{
    std::uint64_t target = coreCycleCount + core_cycles;
    while (coreCycleCount < target)
        clocks.step();
}

SimResult
Gpu::run()
{
    const bool skip = schedulerMode() == SchedulerMode::Skip;
    const std::uint64_t cycles0 = coreCycleCount;
    const std::uint64_t ticked0 = clocks.tickedEdges();
    const std::uint64_t skipped0 = clocks.skippedEdges();
    const auto prof0 = tickProf;
    const auto wall0 = std::chrono::steady_clock::now();
    sleepEnabled = skip;
    nextTimedWake = kInfiniteHorizon;
    sleptCycles = 0;
    memSys->setSleepEnabled(skip);
    const MemSystem::SleptTicks mem0 = memSys->sleptTicks();

    while (!allWorkDone()) {
        if (coreCycleCount >= cfg.maxCoreCycles) {
            resultTimedOut = true;
            warn("simulation of '%s' on '%s' hit the %llu-cycle cap",
                 prof.name.c_str(), cfg.name.c_str(),
                 static_cast<unsigned long long>(cfg.maxCoreCycles));
            break;
        }
        // Step in bursts to keep the done-check off the critical path,
        // clamped so the safety cap is never overshot.
        std::uint64_t target =
            std::min(coreCycleCount + 64, cfg.maxCoreCycles);
        if (skip) {
            clocks.runUntil(coreDomain, target);
        } else {
            while (coreCycleCount < target)
                clocks.step();
        }
    }
    flushSleep();
    asleepMask = 0;
    sleepEnabled = false;
    memSys->setSleepEnabled(false);
    const MemSystem::SleptTicks mem1 = memSys->sleptTicks();

    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    recordSimSpeed(coreCycleCount - cycles0,
                   clocks.tickedEdges() - ticked0,
                   clocks.skippedEdges() - skipped0, sleptCycles,
                   mem1.l2Banks - mem0.l2Banks,
                   mem1.dramChannels - mem0.dramChannels,
                   static_cast<std::uint64_t>(wall_ns));
    if (tickProfileEnabled()) {
        for (std::size_t s = 0; s < numProfSlots; ++s) {
            recordTickProfile(kProfSlotNames[s],
                              tickProf[s].ticks - prof0[s].ticks,
                              tickProf[s].nanos - prof0[s].nanos);
        }
    }
    return harvest();
}

void
Gpu::dumpStats(std::ostream &os) const
{
    statsRoot.dump(os);
}

/**
 * The declarative harvest: every figure input below is a named query
 * into the stats tree ("which groups" x "which stat"), so adding a
 * metric means registering a stat and mapping it here -- no component
 * plumbing. Queries return groups in construction order, which keeps
 * floating-point aggregation deterministic.
 */
SimResult
Gpu::harvest() const
{
    SimResult r;
    r.benchmark = prof.name;
    r.config = cfg.name;
    r.coreCycles = coreCycleCount;
    r.elapsedPs = clocks.nowPs();
    r.timedOut = resultTimedOut;

    const auto core_g = stats::findGroups(statsRoot, "core*");
    const auto l1d_g = stats::findGroups(statsRoot, "core*.l1d");
    const auto part_g = stats::findGroups(statsRoot, "part*");
    const auto l2b_g = stats::findGroups(statsRoot, "part*.l2b*");
    const auto dram_g = stats::findGroups(statsRoot, "part*.dram");

    // Core side: issue progress and stall taxonomy (Figs. 1 and 7).
    r.warpInstsIssued = stats::sumScalar(core_g, "issued_insts");
    const std::uint64_t active_cycles =
        stats::sumScalar(core_g, "active_cycles");
    std::array<std::uint64_t, numIssueStallCauses> stalls{};
    std::uint64_t stall_cycles = 0;
    for (unsigned i = 0; i < numIssueStallCauses; ++i) {
        stalls[i] = stats::sumVectorAt(core_g, "issue_stalls", i);
        stall_cycles += stalls[i];
    }
    const double mem_lat_sum = stats::sumValue(core_g, "mem_lat_sum");
    const std::uint64_t mem_lat_n =
        stats::sumScalar(core_g, "mem_lat_samples");
    const double l2_lat_sum = stats::sumValue(core_g, "l2_hit_lat_sum");
    const std::uint64_t l2_lat_n =
        stats::sumScalar(core_g, "l2_hit_lat_samples");

    // L1 data caches (Fig. 9).
    const std::uint64_t l1_accesses = stats::sumScalar(l1d_g, "accesses");
    const std::uint64_t l1_read_hits =
        stats::sumScalar(l1d_g, "read_hits");
    const std::uint64_t l1_read_misses =
        stats::sumScalar(l1d_g, "read_misses");
    const std::uint64_t l1_merges = stats::sumScalar(l1d_g, "mshr_merges");
    std::array<std::uint64_t, numCacheStallCauses> l1_stalls{};
    for (unsigned i = 0; i < numCacheStallCauses; ++i)
        l1_stalls[i] = stats::sumVectorAt(l1d_g, "stall_cycles", i);

    r.ipc = r.coreCycles
                ? static_cast<double>(r.warpInstsIssued) /
                      static_cast<double>(r.coreCycles)
                : 0.0;
    r.perf = r.elapsedPs > 0
                 ? static_cast<double>(r.warpInstsIssued) / r.elapsedPs
                 : 0.0;
    r.issueStallFrac =
        active_cycles
            ? static_cast<double>(stall_cycles) /
                  static_cast<double>(active_cycles)
            : 0.0;
    if (stall_cycles) {
        for (unsigned i = 0; i < numIssueStallCauses; ++i) {
            r.issueStallDist[i] = static_cast<double>(stalls[i]) /
                                  static_cast<double>(stall_cycles);
        }
    }
    r.aml = mem_lat_n ? mem_lat_sum / static_cast<double>(mem_lat_n) : 0.0;
    r.l2Ahl = l2_lat_n ? l2_lat_sum / static_cast<double>(l2_lat_n) : 0.0;

    r.l1Accesses = l1_accesses;
    std::uint64_t l1_reads = l1_read_hits + l1_read_misses + l1_merges;
    // Merged accesses are satisfied by an in-flight fill: they add no
    // traffic to the next level, so they do not count as misses.
    r.l1MissRate = l1_reads ? static_cast<double>(l1_read_misses) /
                                  static_cast<double>(l1_reads)
                            : 0.0;
    std::uint64_t l1_stall_total = 0;
    for (auto s : l1_stalls)
        l1_stall_total += s;
    r.l1StallCycles = l1_stall_total;
    if (l1_stall_total) {
        for (unsigned i = 0; i < numCacheStallCauses; ++i) {
            r.l1StallDist[i] = static_cast<double>(l1_stalls[i]) /
                               static_cast<double>(l1_stall_total);
        }
    }

    // Memory side (no "part*" groups under an ideal hierarchy, so the
    // sums are zero and every derived value below stays 0 -- exactly
    // the ideal-mode semantics, with no mode branch).
    const std::uint64_t l2q_lifetime =
        stats::sumScalar(part_g, "l2_access_occ_lifetime");
    const std::uint64_t dramq_lifetime =
        stats::sumScalar(part_g, "dram_occ_lifetime");
    for (unsigned i = 0; i < stats::numOccBands; ++i) {
        const std::uint64_t l2n =
            stats::sumVectorAt(part_g, "l2_access_occ", i);
        const std::uint64_t dn = stats::sumVectorAt(part_g, "dram_occ", i);
        r.l2AccessQueueOcc[i] =
            l2q_lifetime ? static_cast<double>(l2n) /
                               static_cast<double>(l2q_lifetime)
                         : 0.0;
        r.dramQueueOcc[i] =
            dramq_lifetime ? static_cast<double>(dn) /
                                 static_cast<double>(dramq_lifetime)
                           : 0.0;
    }

    const std::uint64_t l2_read_hits = stats::sumScalar(l2b_g, "read_hits");
    const std::uint64_t l2_read_misses =
        stats::sumScalar(l2b_g, "read_misses");
    const std::uint64_t l2_merges = stats::sumScalar(l2b_g, "mshr_merges");
    std::array<std::uint64_t, numCacheStallCauses> l2_stalls{};
    for (unsigned i = 0; i < numCacheStallCauses; ++i)
        l2_stalls[i] = stats::sumVectorAt(l2b_g, "stall_cycles", i);

    r.l2Accesses = stats::sumScalar(l2b_g, "accesses");
    std::uint64_t l2_reads = l2_read_hits + l2_read_misses + l2_merges;
    r.l2MissRate = l2_reads ? static_cast<double>(l2_read_misses) /
                                  static_cast<double>(l2_reads)
                            : 0.0;
    r.l2ReadHits = l2_read_hits;
    r.l2ReadMisses = l2_read_misses;
    r.l2Merges = l2_merges;
    std::uint64_t l2_stall_total = 0;
    for (auto s : l2_stalls)
        l2_stall_total += s;
    r.l2StallCycles = l2_stall_total;
    if (l2_stall_total) {
        for (unsigned i = 0; i < numCacheStallCauses; ++i) {
            r.l2StallDist[i] = static_cast<double>(l2_stalls[i]) /
                               static_cast<double>(l2_stall_total);
        }
    }

    // DRAM (no "part*.dram" groups in P_DRAM mode: the channel is an
    // ideal pipe inside the partition, measured as nothing).
    const std::uint64_t bus_busy =
        stats::sumScalar(dram_g, "data_bus_busy_cycles");
    const std::uint64_t pending = stats::sumScalar(dram_g, "pending_cycles");
    const std::uint64_t act = stats::sumScalar(dram_g, "activates");
    r.dramReads = stats::sumScalar(dram_g, "reads");
    r.dramWrites = stats::sumScalar(dram_g, "writes");
    const std::uint64_t cols = r.dramReads + r.dramWrites;

    r.dramEfficiency =
        pending ? static_cast<double>(bus_busy) /
                      static_cast<double>(pending)
                : 0.0;
    if (cols) {
        std::uint64_t hits = cols > act ? cols - act : 0;
        r.dramRowHitRate =
            static_cast<double>(hits) / static_cast<double>(cols);
    }

    // Per-level bandwidth (the paper's bytes/cycle argument): the
    // "bw" formulas registered by NormalMemSystem; absent (and zero)
    // under the ideal network-free hierarchies.
    if (const stats::Group *bw = statsRoot.child("bw")) {
        auto val = [bw](const char *stat) {
            const stats::StatBase *s = bw->stat(stat);
            bwsim_assert(s, "bw group lacks stat '%s'", stat);
            return s->value();
        };
        r.l1IcntBytes = static_cast<std::uint64_t>(val("l1_icnt_bytes"));
        r.icntL2Bytes = static_cast<std::uint64_t>(val("icnt_l2_bytes"));
        r.l2DramBytes = static_cast<std::uint64_t>(val("l2_dram_bytes"));
        r.l1IcntBpc = val("l1_icnt_bpc");
        r.icntL2Bpc = val("icnt_l2_bpc");
        r.l2DramBpc = val("l2_dram_bpc");
        r.l1IcntUtil = val("l1_icnt_util");
        r.icntL2Util = val("icnt_l2_util");
        r.l2DramUtil = val("l2_dram_util");
    }
    return r;
}

} // namespace bwsim
