#include "cache/cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "stats/stat.hh"

namespace bwsim
{

const char *
cacheOutcomeName(CacheOutcome o)
{
    switch (o) {
      case CacheOutcome::HitServiced:
        return "HitServiced";
      case CacheOutcome::MissIssued:
        return "MissIssued";
      case CacheOutcome::MissMerged:
        return "MissMerged";
      case CacheOutcome::WriteForwarded:
        return "WriteForwarded";
      case CacheOutcome::WriteAllocated:
        return "WriteAllocated";
      case CacheOutcome::WriteMerged:
        return "WriteMerged";
      case CacheOutcome::StallMshrFull:
        return "StallMshrFull";
      case CacheOutcome::StallLineAlloc:
        return "StallLineAlloc";
      case CacheOutcome::StallMissQueueFull:
        return "StallMissQueueFull";
      case CacheOutcome::StallPortBusy:
        return "StallPortBusy";
      case CacheOutcome::StallRespQueueFull:
        return "StallRespQueueFull";
      default:
        panic("invalid cache outcome %u", static_cast<unsigned>(o));
    }
}

bool
isStallOutcome(CacheOutcome o)
{
    switch (o) {
      case CacheOutcome::StallMshrFull:
      case CacheOutcome::StallLineAlloc:
      case CacheOutcome::StallMissQueueFull:
      case CacheOutcome::StallPortBusy:
      case CacheOutcome::StallRespQueueFull:
        return true;
      default:
        return false;
    }
}

const char *
cacheStallCauseName(CacheStallCause c)
{
    switch (c) {
      case CacheStallCause::RespQueueFull:
        return "bp-ICNT";
      case CacheStallCause::PortBusy:
        return "port";
      case CacheStallCause::LineAlloc:
        return "cache";
      case CacheStallCause::MshrFull:
        return "mshr";
      case CacheStallCause::MissQueueFull:
        return "bp-next-level";
      default:
        panic("invalid stall cause %u", static_cast<unsigned>(c));
    }
}

double
CacheCounters::missRate() const
{
    std::uint64_t reads = readHits + readMisses + mshrMerges;
    if (reads == 0)
        return 0.0;
    return static_cast<double>(readMisses + mshrMerges) /
           static_cast<double>(reads);
}

CacheStallCause
CacheModel::stallCauseOf(CacheOutcome o)
{
    switch (o) {
      case CacheOutcome::StallMshrFull:
        return CacheStallCause::MshrFull;
      case CacheOutcome::StallLineAlloc:
        return CacheStallCause::LineAlloc;
      case CacheOutcome::StallMissQueueFull:
        return CacheStallCause::MissQueueFull;
      case CacheOutcome::StallPortBusy:
        return CacheStallCause::PortBusy;
      case CacheOutcome::StallRespQueueFull:
        return CacheStallCause::RespQueueFull;
      default:
        panic("outcome %s is not a stall", cacheOutcomeName(o));
    }
}

CacheModel::CacheModel(const CacheParams &params,
                       MemFetchAllocator *allocator, int core_id)
    : cfg(params), alloc(allocator), coreId(core_id),
      tags(params.sizeBytes, params.lineBytes, params.assoc,
           params.indexDivisor),
      mshr(params.mshrEntries, params.mshrMaxMerge),
      missQ(params.missQueueEntries),
      respQ(params.respQueueEntries ? params.respQueueEntries : 1),
      portCyclesPerLine(params.portBytesPerCycle
                            ? static_cast<std::uint32_t>(divCeil(
                                  params.lineBytes,
                                  params.portBytesPerCycle))
                            : 0)
{
    bwsim_assert(alloc != nullptr, "cache '%s' needs a packet allocator",
                 cfg.name.c_str());
}

void
CacheModel::registerStats(stats::Group &parent, const std::string &name)
{
    stats::Group &g = parent.createChild(name);
    g.bindScalar("accesses", "accesses presented", ctr.accesses);
    g.bindScalar("read_hits", "read hits serviced", ctr.readHits);
    g.bindScalar("read_misses", "read misses (fills requested)",
                 ctr.readMisses);
    g.bindScalar("bypassed_reads",
                 "read misses that bypassed allocation (no fill)",
                 ctr.bypassedReads);
    g.bindScalar("mshr_merges", "reads merged into in-flight fills",
                 ctr.mshrMerges);
    g.bindScalar("write_hits", "write hits", ctr.writeHits);
    g.bindScalar("write_misses", "write misses", ctr.writeMisses);
    g.bindScalar("writes_forwarded",
                 "write-evict stores pushed to the next level",
                 ctr.writesForwarded);
    g.bindScalar("writebacks", "dirty lines written back", ctr.writebacks);
    g.bindScalar("fills", "fills applied from the next level", ctr.fills);
    std::vector<std::string> causes;
    for (unsigned i = 0; i < numCacheStallCauses; ++i)
        causes.push_back(
            cacheStallCauseName(static_cast<CacheStallCause>(i)));
    g.bindVector("stall_cycles", "owner-observed stalled cycles by cause",
                 ctr.stallCycles.data(), numCacheStallCauses,
                 std::move(causes));
    g.formula("miss_rate", "read misses+merges / all reads",
              [this] { return ctr.missRate(); });
}

bool
CacheModel::tryUsePort(Cycle now)
{
    if (portCyclesPerLine == 0)
        return true;
    if (portFreeAt > now)
        return false;
    portFreeAt = now + portCyclesPerLine;
    return true;
}

std::uint32_t
CacheModel::fetchBytesFor(const CacheAccess &acc,
                          std::uint32_t quantum) const
{
    return demandTransferBytes(acc.dataBytes, quantum, cfg.lineBytes);
}

MemFetch *
CacheModel::makePacket(AccessType type, Addr line_addr,
                       std::uint32_t store_bytes, const CacheAccess &acc,
                       double now_ps)
{
    MemFetch *mf = alloc->alloc();
    mf->lineAddr = line_addr;
    mf->lineBytes = cfg.lineBytes;
    mf->dataBytes = cfg.lineBytes;
    mf->fillBytes = cfg.lineBytes;
    mf->storeBytes = store_bytes;
    mf->type = type;
    mf->coreId = (type == AccessType::L2Writeback) ? -1 : coreId;
    mf->warpId = acc.warpId;
    mf->slotId = acc.slotId;
    mf->tCreated = now_ps;
    mf->tLeftL1 = now_ps;
    return mf;
}

bool
CacheModel::reserveLine(const ProbeOutcome &probe, Addr line_addr,
                        Cycle now, double now_ps,
                        std::uint32_t miss_q_slots_needed)
{
    bwsim_assert(missQ.free() >= miss_q_slots_needed,
                 "reserveLine without reserving miss queue space");
    if (probe.result == ProbeResult::MissEvict && probe.victimDirty) {
        bwsim_assert(cfg.writePolicy == WritePolicy::WriteBack,
                     "dirty victim in a non-write-back cache");
        CacheAccess dummy;
        MemFetch *wb = makePacket(AccessType::L2Writeback, probe.victimAddr,
                                  cfg.lineBytes, dummy, now_ps);
        bool ok = missQ.push(wb);
        bwsim_assert(ok, "miss queue overflow on writeback");
        ++ctr.writebacks;
    }
    tags.reserve(line_addr, probe.way, now);
    return true;
}

CacheOutcome
CacheModel::access(const CacheAccess &acc, Cycle now, double now_ps)
{
    ++ctr.accesses;
    CacheOutcome out;
    if (!acc.write) {
        out = handleRead(acc, now, now_ps);
    } else {
        switch (cfg.writePolicy) {
          case WritePolicy::WriteEvict:
            out = handleWriteEvict(acc, now, now_ps);
            break;
          case WritePolicy::WriteBack:
            out = handleWriteBack(acc, now, now_ps);
            break;
          default:
            panic("write access to read-only cache '%s'", cfg.name.c_str());
        }
    }
    if (isStallOutcome(out)) {
        --ctr.accesses; // retried accesses are counted once, on success
        countStall(stallCauseOf(out));
    } else {
        ++ver;
    }
    return out;
}

CacheOutcome
CacheModel::handleRead(const CacheAccess &acc, Cycle now, double now_ps)
{
    ProbeOutcome probe = tags.probe(acc.lineAddr);

    if (probe.result == ProbeResult::Hit) {
        bool is_l2 = cfg.respQueueEntries > 0;
        if (is_l2) {
            if (respQ.full())
                return CacheOutcome::StallRespQueueFull;
            if (!tryUsePort(now))
                return CacheOutcome::StallPortBusy;
            MemFetch *mf = acc.mf;
            bwsim_assert(mf, "L2 read access without a packet");
            mf->servicedBy = ServicedBy::L2;
            mf->tL2Done = now_ps;
            bool ok = respQ.push(mf, now + cfg.hitLatency);
            bwsim_assert(ok, "response queue overflow");
        }
        tags.accessHit(acc.lineAddr, probe.way, now, false);
        ++ctr.readHits;
        return CacheOutcome::HitServiced;
    }

    if (cfg.bypassReads) {
        // L1 read-bypass (§VI mitigation): the miss allocates nothing
        // -- no reservation, no MSHR entry, no merging -- and the
        // fetch carries only the demanded sectors; the reply
        // completes the waiting LSU slot directly.
        bwsim_assert(!acc.isInstFetch && !acc.mf,
                     "read bypass is an L1D-only policy");
        if (missQ.full())
            return CacheOutcome::StallMissQueueFull;
        MemFetch *fetch = makePacket(AccessType::GlobalRead, acc.lineAddr,
                                     0, acc, now_ps);
        fetch->l1Bypass = true;
        fetch->dataBytes = fetchBytesFor(
            acc, cfg.sectorBytes ? cfg.sectorBytes : kDemandQuantumBytes);
        bool pushed = missQ.push(fetch);
        bwsim_assert(pushed, "miss queue overflow on bypassed read");
        ++ctr.readMisses;
        ++ctr.bypassedReads;
        return CacheOutcome::MissIssued;
    }

    MshrWaiter waiter;
    waiter.warpId = acc.warpId;
    waiter.slotId = acc.slotId;
    waiter.mf = acc.mf;
    waiter.isInstFetch = acc.isInstFetch;

    if (probe.result == ProbeResult::HitReserved) {
        const int e = mshr.find(acc.lineAddr);
        bwsim_assert(e >= 0, "reserved line 0x%llx without an MSHR entry",
                     static_cast<unsigned long long>(acc.lineAddr));
        if (!mshr.canMerge(e))
            return CacheOutcome::StallMshrFull;
        mshr.addWaiter(e, waiter);
        ++ctr.mshrMerges;
        return CacheOutcome::MissMerged;
    }

    // A genuine miss: all resources must be available this cycle.
    if (mshr.full())
        return CacheOutcome::StallMshrFull;
    if (probe.result == ProbeResult::MissNoLine)
        return CacheOutcome::StallLineAlloc;
    std::uint32_t slots =
        1 + ((probe.result == ProbeResult::MissEvict && probe.victimDirty)
                 ? 1
                 : 0);
    if (missQ.free() < slots)
        return CacheOutcome::StallMissQueueFull;

    reserveLine(probe, acc.lineAddr, now, now_ps, slots);
    mshr.addWaiter(mshr.allocate(acc.lineAddr), waiter);

    MemFetch *fetch;
    if (acc.mf) {
        // L2: forward the arriving packet itself to DRAM. The fill
        // must supply what this cache allocates -- the whole line
        // when unsectored (even for a demand-sized bypass fetch),
        // only the demanded sectors when sectored. The reply size
        // (dataBytes) is the requester's and stays untouched.
        fetch = acc.mf;
        fetch->servicedBy = ServicedBy::Dram;
        fetch->fillBytes =
            cfg.sectorBytes
                ? demandTransferBytes(fetch->dataBytes, cfg.sectorBytes,
                                      cfg.lineBytes)
                : cfg.lineBytes;
    } else {
        fetch = makePacket(acc.isInstFetch ? AccessType::InstFetch
                                           : AccessType::GlobalRead,
                           acc.lineAddr, 0, acc, now_ps);
        // A sectored hierarchy fetches (and replies with) only the
        // demanded sectors; an unsectored line-allocating cache needs
        // the whole line (the makePacket default).
        if (cfg.sectorBytes && !acc.isInstFetch)
            fetch->dataBytes = fetchBytesFor(acc, cfg.sectorBytes);
    }
    bool ok = missQ.push(fetch);
    bwsim_assert(ok, "miss queue overflow on read miss");
    ++ctr.readMisses;
    return CacheOutcome::MissIssued;
}

CacheOutcome
CacheModel::handleWriteEvict(const CacheAccess &acc, Cycle now,
                             double now_ps)
{
    (void)now;
    if (missQ.full())
        return CacheOutcome::StallMissQueueFull;

    ProbeOutcome probe = tags.probe(acc.lineAddr);
    if (probe.result == ProbeResult::Hit) {
        tags.invalidate(acc.lineAddr); // write-evict
        ++ctr.writeHits;
    } else {
        ++ctr.writeMisses;
    }

    MemFetch *wr = makePacket(AccessType::GlobalWrite, acc.lineAddr,
                              acc.storeBytes, acc, now_ps);
    bool ok = missQ.push(wr);
    bwsim_assert(ok, "miss queue overflow on forwarded write");
    ++ctr.writesForwarded;
    return CacheOutcome::WriteForwarded;
}

CacheOutcome
CacheModel::handleWriteBack(const CacheAccess &acc, Cycle now,
                            double now_ps)
{
    MemFetch *mf = acc.mf;
    bwsim_assert(mf, "L2 write access without a packet");

    ProbeOutcome probe = tags.probe(acc.lineAddr);

    if (probe.result == ProbeResult::Hit) {
        if (!tryUsePort(now))
            return CacheOutcome::StallPortBusy;
        tags.accessHit(acc.lineAddr, probe.way, now, true);
        ++ctr.writeHits;
        alloc->free(mf); // absorbed; stores carry no reply
        return CacheOutcome::HitServiced;
    }

    if (probe.result == ProbeResult::HitReserved) {
        const int e = mshr.find(acc.lineAddr);
        bwsim_assert(e >= 0, "reserved line 0x%llx without an MSHR entry",
                     static_cast<unsigned long long>(acc.lineAddr));
        mshr.markDirtyOnFill(e);
        ++ctr.writeHits;
        alloc->free(mf);
        return CacheOutcome::WriteMerged;
    }

    // Write miss: write-allocate. A full-line store needs no
    // fetch-on-write (every byte is overwritten); partial stores fetch
    // the line from DRAM and merge. In a sectored cache a store that
    // covers whole sectors overwrites them completely, so it needs no
    // fetch either -- the paper's partial-store mitigation.
    bool full_line = acc.storeBytes >= cfg.lineBytes ||
                     (cfg.sectorBytes && acc.storeBytes > 0 &&
                      acc.storeBytes % cfg.sectorBytes == 0);
    std::uint32_t wb_slots =
        (probe.result == ProbeResult::MissEvict && probe.victimDirty) ? 1
                                                                      : 0;
    std::uint32_t slots = wb_slots + (full_line ? 0 : 1);
    if (!full_line && mshr.full())
        return CacheOutcome::StallMshrFull;
    if (probe.result == ProbeResult::MissNoLine)
        return CacheOutcome::StallLineAlloc;
    if (missQ.free() < slots)
        return CacheOutcome::StallMissQueueFull;

    reserveLine(probe, acc.lineAddr, now, now_ps, slots);
    if (full_line) {
        tags.fill(acc.lineAddr, now, true); // whole line overwritten
        if (portCyclesPerLine)
            portFreeAt = std::max(portFreeAt, now) + portCyclesPerLine;
    } else {
        mshr.markDirtyOnFill(mshr.allocate(acc.lineAddr));
        CacheAccess fetch_ctx; // anonymous: the fetch belongs to the L2
        MemFetch *fetch = makePacket(AccessType::GlobalRead, acc.lineAddr,
                                     0, fetch_ctx, now_ps);
        fetch->servicedBy = ServicedBy::Dram;
        bool ok = missQ.push(fetch);
        bwsim_assert(ok, "miss queue overflow on write allocate");
    }
    ++ctr.writeMisses;
    alloc->free(mf);
    return CacheOutcome::WriteAllocated;
}

bool
CacheModel::fill(MemFetch *mf, Cycle now, double now_ps,
                 std::vector<MshrWaiter> &woken)
{
    Addr line = mf->lineAddr;
    const int e = mshr.find(line);
    bwsim_assert(e >= 0, "fill for untracked line 0x%llx",
                 static_cast<unsigned long long>(line));

    bool is_l2 = cfg.respQueueEntries > 0;
    if (is_l2) {
        std::size_t space = respQ.capacity() - respQ.size();
        if (space < mshr.waiterCount(e))
            return false; // reply network back-pressure blocks the fill
    }

    tags.fill(line, now, mshr.isDirtyOnFill(e));
    ++ctr.fills;
    ++ver;

    // Fills seize the port even if busy (they arrive from DRAM and the
    // paper lists "an ongoing cache line fill" as a port-contention
    // source that delays subsequent hits).
    if (portCyclesPerLine)
        portFreeAt = std::max(portFreeAt, now) + portCyclesPerLine;

    if (is_l2) {
        l2Woken.clear();
        mshr.fill(e, l2Woken);
        bool mf_is_waiter = false;
        Cycle when = now + cfg.hitLatency;
        for (auto &w : l2Woken) {
            bwsim_assert(w.mf, "L2 MSHR waiter without a packet");
            w.mf->tL2Done = now_ps;
            bool ok = respQ.push(w.mf, when);
            bwsim_assert(ok, "response queue overflow on fill");
            when += portCyclesPerLine ? portCyclesPerLine : 0;
            if (w.mf == mf)
                mf_is_waiter = true;
        }
        if (!mf_is_waiter)
            alloc->free(mf); // an L2-generated fetch (write allocate)
    } else {
        mshr.fill(e, woken);
    }
    return true;
}

} // namespace bwsim
