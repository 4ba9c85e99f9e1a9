#include "mem/mem_system.hh"

#include <algorithm>

namespace bwsim
{

void
MemSystem::icntTick(double)
{
    panic("icnt tick on a memory system without memory clocks");
}

void
MemSystem::dramTick(double)
{
    panic("DRAM tick on a memory system without memory clocks");
}

NormalMemSystem::NormalMemSystem(const GpuConfig &config,
                                 MemFetchAllocator *allocator,
                                 stats::Group &stats_parent)
    : cfg(config), amap(cfg.addressMap())
{
    icnt = std::make_unique<Interconnect>(cfg.reqNetParams(),
                                          cfg.replyNetParams());
    icnt->registerStats(stats_parent);
    for (std::uint32_t p = 0; p < cfg.numPartitions; ++p) {
        parts.push_back(std::make_unique<MemoryPartition>(
            cfg.partitionParams(static_cast<int>(p)), allocator,
            icnt.get()));
        parts.back()->registerStats(stats_parent);
    }
    registerBandwidthStats(stats_parent);
}

/**
 * The paper's per-level bandwidth accounting (its bytes/cycle
 * argument): bytes crossing each hierarchy boundary, the same divided
 * by the boundary's clock, and the utilization against the boundary's
 * peak. The L1<->icnt boundary counts traffic at the core-side edges
 * of the two networks (requests accepted from the L1 miss queues,
 * replies popped into the cores); icnt<->L2 counts the L2-side edges
 * (requests delivered to the L2 access queues, replies injected by
 * the banks); L2<->DRAM counts the partitions' data-bus bytes.
 *
 * In a lossless network the byte *totals* at the two icnt boundaries
 * agree once everything drains -- what distinguishes them (and what
 * the paper compares) is utilization: the same bytes cross 15
 * core-side ports on one boundary and totalL2Banks bank-side ports on
 * the other, so the per-boundary peaks differ. Gpu::harvest() and
 * --dump-stats read all of these by name under "gpu.bw".
 */
void
NormalMemSystem::registerBandwidthStats(stats::Group &parent)
{
    stats::Group &bw = parent.createChild("bw");
    const NetworkCounters &req = icnt->request().counters();
    const NetworkCounters &rep = icnt->reply().counters();

    // Peak bytes/cycle per boundary: every port moves one flit per
    // network cycle (request out + reply in on each), and every
    // partition's data bus moves busBytesPerCycle per DRAM cycle.
    const double flit_pair = double(cfg.reqFlitBytes + cfg.replyFlitBytes);
    const double l1_icnt_peak = double(cfg.numCores) * flit_pair;
    const double icnt_l2_peak = double(cfg.totalL2Banks()) * flit_pair;
    const double l2_dram_peak =
        double(cfg.numPartitions) * double(cfg.dramBusBytesPerCycle);
    bw.bindScalar("icnt_cycles", "interconnect/L2 clock cycles ticked",
                  icntCycles);
    bw.bindScalar("dram_cycles", "DRAM command-clock cycles ticked",
                  dramCycles);
    bw.formula("l1_icnt_bytes", "bytes across the L1<->icnt boundary",
               [&req, &rep] {
                   return double(req.bytesCarried + rep.bytesEjected);
               });
    bw.formula("icnt_l2_bytes", "bytes across the icnt<->L2 boundary",
               [&req, &rep] {
                   return double(req.bytesEjected + rep.bytesCarried);
               });
    bw.formula("l2_dram_bytes", "bytes across the L2<->DRAM boundary",
               [this] {
                   std::uint64_t n = 0;
                   for (const auto &p : parts)
                       n += p->dramDataBytes();
                   return double(n);
               });
    bw.formula("l1_icnt_bpc",
               "L1<->icnt bytes per interconnect cycle",
               [&req, &rep, this] {
                   return icntCycles
                              ? double(req.bytesCarried +
                                       rep.bytesEjected) /
                                    double(icntCycles)
                              : 0.0;
               });
    bw.formula("icnt_l2_bpc",
               "icnt<->L2 bytes per interconnect cycle",
               [&req, &rep, this] {
                   return icntCycles
                              ? double(req.bytesEjected +
                                       rep.bytesCarried) /
                                    double(icntCycles)
                              : 0.0;
               });
    bw.formula("l2_dram_bpc", "L2<->DRAM bytes per DRAM command cycle",
               [this] {
                   if (!dramCycles)
                       return 0.0;
                   std::uint64_t n = 0;
                   for (const auto &p : parts)
                       n += p->dramDataBytes();
                   return double(n) / double(dramCycles);
               });
    bw.formula("l1_icnt_util",
               "L1<->icnt bytes over the core ports' peak",
               [&req, &rep, this, l1_icnt_peak] {
                   return icntCycles && l1_icnt_peak > 0
                              ? double(req.bytesCarried +
                                       rep.bytesEjected) /
                                    (double(icntCycles) * l1_icnt_peak)
                              : 0.0;
               });
    bw.formula("icnt_l2_util",
               "icnt<->L2 bytes over the L2 bank ports' peak",
               [&req, &rep, this, icnt_l2_peak] {
                   return icntCycles && icnt_l2_peak > 0
                              ? double(req.bytesEjected +
                                       rep.bytesCarried) /
                                    (double(icntCycles) * icnt_l2_peak)
                              : 0.0;
               });
    bw.formula("l2_dram_util",
               "L2<->DRAM bytes over the partitions' data-bus peak",
               [this, l2_dram_peak] {
                   if (!dramCycles || l2_dram_peak <= 0)
                       return 0.0;
                   std::uint64_t n = 0;
                   for (const auto &p : parts)
                       n += p->dramDataBytes();
                   return double(n) / (double(dramCycles) * l2_dram_peak);
               });
}

void
NormalMemSystem::deliverResponses(int core_id, SmCore &core, double now_ps,
                                  std::uint64_t)
{
    // One response per cycle from the core's response FIFO.
    auto &reply = icnt->reply();
    if (reply.ejectReady(static_cast<std::uint32_t>(core_id))) {
        MemFetch *mf = reply.ejectPop(static_cast<std::uint32_t>(core_id));
        core.deliverResponse(mf, now_ps);
    }
}

void
NormalMemSystem::acceptRequests(int core_id, SmCore &core, double now_ps,
                                std::uint64_t)
{
    if (!core.hasOutgoing())
        return;
    auto &req = icnt->request();
    if (!req.canAccept(static_cast<std::uint32_t>(core_id)))
        return;
    MemFetch *mf = core.peekOutgoing();
    mf->partitionId = static_cast<int>(amap.partitionOf(mf->lineAddr));
    mf->l2BankId = static_cast<int>(amap.bankOf(mf->lineAddr));
    core.popOutgoing();
    if (mf->tLeftL1 == 0)
        mf->tLeftL1 = now_ps;
    req.inject(static_cast<std::uint32_t>(core_id),
               static_cast<std::uint32_t>(mf->l2BankId), mf,
               mf->requestBytes(), now_ps);
}

void
NormalMemSystem::icntTick(double now_ps)
{
    ++icntCycles;
    icnt->tick();
    for (auto &p : parts)
        p->tickL2(now_ps);
}

void
NormalMemSystem::dramTick(double now_ps)
{
    ++dramCycles;
    for (auto &p : parts)
        p->tickDram(now_ps);
}

std::uint64_t
NormalMemSystem::coreWakeMask(std::uint64_t outgoing) const
{
    // Reply-network destinations and request-network sources are the
    // core ids. Both masks change only at icnt ticks and at the
    // owning core's own pop/inject.
    return icnt->reply().ejectReadyMask() |
           (outgoing & ~icnt->request().injectFullMask());
}

void
NormalMemSystem::setSleepEnabled(bool on)
{
    for (auto &p : parts)
        p->setSleepEnabled(on);
}

MemSystem::SleptTicks
NormalMemSystem::sleptTicks() const
{
    SleptTicks t;
    for (const auto &p : parts) {
        t.l2Banks += p->sleptBankTicks();
        t.dramChannels += p->sleptDramTicks();
    }
    return t;
}

bool
NormalMemSystem::drained() const
{
    if (icnt->packetsInFlight() != 0)
        return false;
    for (const auto &p : parts)
        if (!p->drained())
            return false;
    return true;
}

IdealMemSystem::IdealMemSystem(const GpuConfig &config,
                               MemFetchAllocator *allocator, stats::Group &)
    : cfg(config), alloc(allocator)
{
    pipesFast.resize(cfg.numCores);
    pipesSlow.resize(cfg.numCores);
    if (cfg.mode == MemoryMode::PerfectMem) {
        perfectL2Tags = std::make_unique<TagArray>(cfg.l2TotalSizeBytes,
                                                   cfg.lineBytes,
                                                   cfg.l2Assoc);
    }
}

void
IdealMemSystem::deliverResponses(int core_id, SmCore &core, double now_ps,
                                 std::uint64_t core_cycle)
{
    // acceptRequests() drained every miss after the core's last tick
    // (delivering a fill queues none), so only the pipes can act.
    for (auto *pipe : {&pipesFast[core_id], &pipesSlow[core_id]}) {
        while (pipe->ready(core_cycle))
            core.deliverResponse(pipe->pop(), now_ps);
    }
}

void
IdealMemSystem::acceptRequests(int core_id, SmCore &core, double now_ps,
                               std::uint64_t core_cycle)
{
    // Infinite-bandwidth backend: drain every miss the core produced
    // and schedule its response at the mode's fixed latency.
    while (core.hasOutgoing()) {
        MemFetch *mf = core.peekOutgoing();
        core.popOutgoing();
        if (mf->isWrite()) {
            alloc->free(mf); // stores vanish into the ideal sink
            continue;
        }
        if (mf->tLeftL1 == 0)
            mf->tLeftL1 = now_ps;
        bool fast = false;
        std::uint32_t lat;
        if (cfg.mode == MemoryMode::PerfectMem) {
            ProbeOutcome probe = perfectL2Tags->probe(mf->lineAddr);
            if (probe.result == ProbeResult::Hit) {
                perfectL2Tags->accessHit(mf->lineAddr, probe.way,
                                         core_cycle, false);
                mf->servicedBy = ServicedBy::L2;
                lat = cfg.perfectL2Latency;
                fast = true;
            } else {
                bwsim_assert(probe.result != ProbeResult::MissNoLine,
                             "perfect L2 tags can never be reservation "
                             "limited");
                perfectL2Tags->reserve(mf->lineAddr, probe.way,
                                      core_cycle);
                perfectL2Tags->fill(mf->lineAddr, core_cycle, false);
                mf->servicedBy = ServicedBy::Dram;
                lat = cfg.perfectDramLatency;
            }
        } else { // FixedL1Lat
            mf->servicedBy = ServicedBy::Dram;
            lat = cfg.fixedL1MissLatency;
        }
        auto &pipe = fast ? pipesFast[core_id] : pipesSlow[core_id];
        pipe.push(mf, core_cycle + lat);
    }
    // A zero latency (fixed-0) makes a response ready this very cycle.
    deliverResponses(core_id, core, now_ps, core_cycle);
}

std::uint64_t
IdealMemSystem::coreHorizon(int core_id, std::uint64_t core_cycle) const
{
    // acceptRequests() leaves no outgoing miss behind, so only pipe
    // maturities matter here. Pipes are keyed on the
    // pre-incremented core cycle: an entry ready at X is delivered on
    // the tick that makes the counter X.
    std::uint64_t h = kInfiniteHorizon;
    for (const auto *pipe :
         {&pipesFast[core_id], &pipesSlow[core_id]}) {
        if (pipe->empty())
            continue;
        Cycle ready = pipe->frontReady();
        h = std::min(h, ready > core_cycle + 1
                            ? static_cast<std::uint64_t>(ready -
                                                         core_cycle - 1)
                            : std::uint64_t(0));
    }
    return h;
}

bool
IdealMemSystem::drained() const
{
    for (const auto &p : pipesFast)
        if (!p.empty())
            return false;
    for (const auto &p : pipesSlow)
        if (!p.empty())
            return false;
    return true;
}

std::unique_ptr<MemSystem>
makeMemSystem(const GpuConfig &config, MemFetchAllocator *allocator,
              stats::Group &stats_parent)
{
    switch (config.mode) {
      case MemoryMode::Normal:
      case MemoryMode::IdealDram:
        // P_DRAM keeps the real crossbars and L2; only the channel
        // inside each partition is idealized (PartitionParams.idealDram
        // set by GpuConfig::partitionParams()).
        return std::make_unique<NormalMemSystem>(config, allocator,
                                                 stats_parent);
      case MemoryMode::PerfectMem:
      case MemoryMode::FixedL1Lat:
        return std::make_unique<IdealMemSystem>(config, allocator,
                                                stats_parent);
    }
    panic("invalid memory mode %u", static_cast<unsigned>(config.mode));
}

} // namespace bwsim
