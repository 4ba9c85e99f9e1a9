#include "smcore/sm_core.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "sim/clock.hh"
#include "stats/stat.hh"

namespace bwsim
{

SmCore::SmCore(const CoreParams &params, MemFetchAllocator *allocator)
    : cfg(params), alloc(allocator),
      warps(params.maxWarps),
      wflags(params.maxWarps, 0),
      ibufSlots(std::size_t(params.maxWarps) * params.ibufferEntries),
      ibufHead(params.maxWarps, 0),
      ibufCnt(params.maxWarps, 0),
      headDest(params.maxWarps, -1),
      headSrc(params.maxWarps, -1),
      warpPendingLsu(params.maxWarps, 0),
      schedMask(params.numSchedulers, 0),
      schedList(params.numSchedulers),
      ctas(params.maxCtasResident),
      scoreboard(params.maxWarps),
      lsu(params.memPipelineWidth),
      greedyWarp(params.numSchedulers, -1),
      lrrPtr(params.numSchedulers, 0),
      fetchMemoVer(params.maxWarps, ~std::uint64_t(0)),
      fetchMemoCause(params.maxWarps, 0)
{
    bwsim_assert(alloc, "core %d needs a packet allocator", cfg.coreId);
    bwsim_assert(cfg.maxWarps > 0 && cfg.numSchedulers > 0,
                 "core %d: bad warp/scheduler counts", cfg.coreId);
    bwsim_assert(cfg.maxWarps <= 64,
                 "core %d: fetch bitmask supports at most 64 warps",
                 cfg.coreId);
    bwsim_assert(cfg.memPipelineWidth > 0,
                 "core %d: memory pipeline needs width", cfg.coreId);
    bwsim_assert(cfg.ibufferEntries > 0 && cfg.ibufferEntries <= 255,
                 "core %d: I-buffer depth %d outside 1..255", cfg.coreId,
                 cfg.ibufferEntries);
    for (int w = 0; w < cfg.maxWarps; ++w)
        schedMask[w % cfg.numSchedulers] |= std::uint64_t(1) << w;

    CacheParams l1dp = cfg.l1d;
    l1dp.name = csprintf("l1d_c%d", cfg.coreId);
    l1dCache = std::make_unique<CacheModel>(l1dp, alloc, cfg.coreId);

    CacheParams l1ip = cfg.l1i;
    l1ip.name = csprintf("l1i_c%d", cfg.coreId);
    l1ip.writePolicy = WritePolicy::ReadOnly;
    l1iCache = std::make_unique<CacheModel>(l1ip, alloc, cfg.coreId);
}

void
SmCore::registerStats(stats::Group &parent)
{
    stats::Group &g = parent.createChild(csprintf("core%d", cfg.coreId));
    g.bindScalar("cycles", "core cycles ticked", ctr.cycles);
    g.bindScalar("active_cycles", "cycles before this core finished",
                 ctr.activeCycles);
    g.bindScalar("issued_insts", "warp instructions issued",
                 ctr.issuedInsts);
    g.bindScalar("issued_cycles", "cycles with at least one issue",
                 ctr.issuedCycles);
    g.bindScalar("loads_issued", "load instructions issued",
                 ctr.loadsIssued);
    g.bindScalar("stores_issued", "store instructions issued",
                 ctr.storesIssued);
    g.bindScalar("l1_accesses", "coalesced accesses presented to the L1D",
                 ctr.l1Accesses);
    g.bindScalar("req_bytes_out",
                 "request bytes drained toward the interconnect",
                 ctr.reqBytesOut);
    g.bindScalar("reply_bytes_in", "reply bytes delivered to this core",
                 ctr.replyBytesIn);
    g.bindScalar("ctas_completed", "thread blocks retired",
                 ctr.ctasCompleted);
    g.bindScalar("warps_completed", "warps retired", ctr.warpsCompleted);
    std::vector<std::string> causes;
    for (unsigned i = 0; i < numIssueStallCauses; ++i)
        causes.push_back(issueStallName(static_cast<IssueStall>(i)));
    g.bindVector("issue_stalls", "no-issue cycles by cause (Fig. 7)",
                 ctr.issueStalls.data(), numIssueStallCauses,
                 std::move(causes));
    g.bindValue("mem_lat_sum", "summed L1-miss latencies (core cycles)",
                ctr.memLatSum);
    g.bindScalar("mem_lat_samples", "L1-miss latency samples",
                 ctr.memLatCount);
    g.bindValue("l2_hit_lat_sum", "summed L2-hit latencies (core cycles)",
                ctr.l2HitLatSum);
    g.bindScalar("l2_hit_lat_samples", "L2-hit latency samples",
                 ctr.l2HitLatCount);
    g.formula("avg_mem_lat", "average L1-miss latency (AML input)",
              [this] {
                  return ctr.memLatCount
                             ? ctr.memLatSum /
                                   static_cast<double>(ctr.memLatCount)
                             : 0.0;
              });
    l1dCache->registerStats(g, "l1d");
    l1iCache->registerStats(g, "l1i");
}

namespace
{

void
assignBit(std::uint64_t &mask, int bit, bool on)
{
    const std::uint64_t b = std::uint64_t(1) << bit;
    mask = on ? (mask | b) : (mask & ~b);
}

} // namespace

WarpInstData &
SmCore::ibufAt(int warp, int k)
{
    int i = ibufHead[warp] + k;
    if (i >= cfg.ibufferEntries)
        i -= cfg.ibufferEntries;
    return ibufSlots[std::size_t(warp) * cfg.ibufferEntries + i];
}

void
SmCore::syncHead(int warp)
{
    if (ibufCnt[warp] == 0)
        return;
    const WarpInstData &inst = ibufAt(warp, 0);
    headDest[warp] = static_cast<std::int16_t>(inst.dest);
    headSrc[warp] = static_cast<std::int16_t>(inst.src);
    assignBit(headMemMask, warp, inst.isMem());
    assignBit(headSfuMask, warp, inst.op == Op::Sfu);
    refreshDep(warp);
}

void
SmCore::refreshDep(int warp)
{
    if (ibufCnt[warp] == 0)
        return; // re-derived by syncHead() when the I-buffer refills
    PendingKind blocked;
    scoreboard.canIssueRegs(warp, headSrc[warp], headDest[warp], blocked);
    assignBit(depMemMask, warp, blocked == PendingKind::Mem);
    assignBit(depAluMask, warp, blocked == PendingKind::Alu);
}

void
SmCore::updateWarpBits(int warp)
{
    std::uint8_t f = wflags[warp];
    bool live = f & WfInUse;
    assignBit(fetchEligible, warp,
              f == WfInUse && int(ibufCnt[warp]) < cfg.ibufferEntries);
    assignBit(decodedMask, warp, live && ibufCnt[warp] > 0);
    assignBit(unfetchedMask, warp,
              live && (!(f & WfCursorDone) || (f & WfWaitingIFetch)));
    assignBit(memPendingMask, warp, live && warpPendingLsu[warp] > 0);
    assignBit(retireCandMask, warp,
              f == (WfInUse | WfCursorDone) && ibufCnt[warp] == 0);
}

void
SmCore::maybeDispatchCtas()
{
    if (!source)
        return;
    while (activeCtas < cfg.maxCtasResident && source->hasWork()) {
        int free_warps = cfg.maxWarps - liveWarps;
        int cta_slot = -1;
        for (int c = 0; c < int(ctas.size()); ++c) {
            if (!ctas[c].active) {
                cta_slot = c;
                break;
            }
        }
        if (cta_slot < 0)
            return;

        CtaWork work = source->takeCta(cfg.coreId);
        bwsim_assert(work.numWarps > 0 && work.makeCursor,
                     "core %d received an empty CTA", cfg.coreId);
        bwsim_assert(work.numWarps <= free_warps,
                     "core %d: CTA of %d warps exceeds %d free contexts "
                     "(lower maxCtasResident or warps per CTA)",
                     cfg.coreId, work.numWarps, free_warps);

        ctas[cta_slot].active = true;
        ctas[cta_slot].warpsLeft = work.numWarps;
        ++activeCtas;

        int launched = 0;
        for (int w = 0; w < int(warps.size()) && launched < work.numWarps;
             ++w) {
            if (wflags[w] & WfInUse)
                continue;
            Warp &warp = warps[w];
            warp.cursor = work.makeCursor(launched);
            ibufHead[w] = 0;
            warp.ctaSlot = cta_slot;
            warp.age = ageCounter++;
            warpPendingLsu[w] = 0;
            wflags[w] = WfInUse |
                        (warp.cursor->done() ? WfCursorDone : 0);
            ibufCnt[w] = 0;
            updateWarpBits(w);
            ++liveWarps;
            ++launched;
        }
        schedListDirty = true;
        retireDirty = true; // empty-program warps retire immediately
    }
}

void
SmCore::fetchStage(double now_ps)
{
    // One I-cache access per cycle for the round-robin-next warp that
    // wants instructions, found via the eligibility bitmask.
    if (fetchEligible == 0)
        return;
    std::uint64_t rotated = fetchPtr < 64
                                ? (fetchEligible &
                                   (~std::uint64_t(0) << fetchPtr))
                                : 0;
    int w = rotated ? __builtin_ctzll(rotated)
                    : __builtin_ctzll(fetchEligible);

    // Batched retry: a stalled I-fetch leaves the cache and the warp's
    // PC untouched, and L1I stall outcomes depend only on cache state
    // (no data port, no response queue at L1), so while the L1I
    // version is unchanged the same warp re-derives the same stall.
    // Replay the counter math and skip the probe.
    if (fetchMemoVer[w] == l1iCache->version()) {
        l1iCache->countStall(
            static_cast<CacheStallCause>(fetchMemoCause[w]));
        updateWarpBits(w);
        fetchPtr = (w + 1) % int(warps.size());
        return;
    }

    Warp &warp = warps[w];
    Addr pc = warp.cursor->nextPc();
    Addr line = roundDown(pc, cfg.l1i.lineBytes);
    CacheAccess acc;
    acc.lineAddr = line;
    acc.warpId = w;
    acc.slotId = -1;
    acc.isInstFetch = true;
    CacheOutcome out = l1iCache->access(acc, cycle, now_ps);
    if (isStallOutcome(out) && out != CacheOutcome::StallPortBusy) {
        // PortBusy (port-configured caches only) depends on the
        // current cycle, not just cache state: never memoize it.
        fetchMemoVer[w] = l1iCache->version();
        fetchMemoCause[w] = static_cast<std::uint8_t>(
            CacheModel::stallCauseOf(out));
    }
    if (out == CacheOutcome::HitServiced) {
        bool was_empty = (ibufCnt[w] == 0);
        for (int k = 0; k < cfg.fetchWidth &&
                        int(ibufCnt[w]) < cfg.ibufferEntries;
             ++k) {
            if (warp.cursor->done())
                break;
            if (roundDown(warp.cursor->nextPc(), cfg.l1i.lineBytes) !=
                line) {
                break; // next instruction is on another line
            }
            bool ok = warp.cursor->next(ibufAt(w, ibufCnt[w]));
            bwsim_assert(ok, "cursor lied about done()");
            ++ibufCnt[w];
        }
        if (was_empty)
            syncHead(w);
        if (warp.cursor->done()) {
            wflags[w] |= WfCursorDone;
            retireDirty = true;
        }
    } else if (out == CacheOutcome::MissIssued ||
               out == CacheOutcome::MissMerged) {
        wflags[w] |= WfWaitingIFetch;
    }
    // On a stall outcome the I-cache counted the cause; retry later.
    updateWarpBits(w);
    fetchPtr = (w + 1) % int(warps.size());
}

int
SmCore::allocPendingOp(int warp, bool write, int dest_reg,
                       std::uint32_t n_accesses)
{
    int idx;
    if (!pendingFree.empty()) {
        idx = pendingFree.back();
        pendingFree.pop_back();
    } else {
        idx = int(pendingOps.size());
        pendingOps.emplace_back();
    }
    PendingMemOp &p = pendingOps[idx];
    p.valid = true;
    p.warpId = warp;
    p.write = write;
    p.destReg = dest_reg;
    p.remaining = n_accesses;
    ++warpPendingLsu[warp];
    updateWarpBits(warp);
    return idx;
}

void
SmCore::lsuAllocSlot(int warp, WarpInstData &inst)
{
    bwsim_assert(lsuHasFreeSlot(), "lsuAllocSlot with no free slot");
    int i = lsuHead + lsuOccupied;
    if (i >= int(lsu.size()))
        i -= int(lsu.size());
    LsuSlot &s = lsu[i];
    s.warpId = warp;
    s.write = (inst.op == Op::Store);
    s.addrs.swap(inst.lineAddrs);
    s.nextIdx = 0;
    s.storeBytes = inst.storeBytes;
    s.seq = lsuSeq++;
    bwsim_assert(!s.addrs.empty(), "memory instruction with no accesses");
    s.pendingIdx = allocPendingOp(
        warp, s.write, s.write ? -1 : inst.dest,
        static_cast<std::uint32_t>(s.addrs.size()));
    ++lsuOccupied;
}

void
SmCore::rebuildSchedLists()
{
    static thread_local std::vector<std::pair<std::uint64_t, int>> aged;
    for (int s = 0; s < cfg.numSchedulers; ++s) {
        aged.clear();
        for (int w = s; w < int(warps.size()); w += cfg.numSchedulers)
            if (wflags[w] & WfInUse)
                aged.emplace_back(warps[w].age, w);
        std::sort(aged.begin(), aged.end());
        schedList[s].clear();
        for (auto &[age, w] : aged)
            schedList[s].push_back(w);
    }
    schedListDirty = false;
}

void
SmCore::popIbufHead(int warp)
{
    if (++ibufHead[warp] == cfg.ibufferEntries)
        ibufHead[warp] = 0;
    if (--ibufCnt[warp] == 0) {
        if (wflags[warp] & WfCursorDone)
            retireDirty = true;
    } else {
        syncHead(warp);
    }
    updateWarpBits(warp);
}

std::uint64_t
SmCore::readyHeads(int alu_issued) const
{
    const bool alu_slot = alu_issued < cfg.aluIssuePerCycle;
    std::uint64_t units = 0;
    if (lsuHasFreeSlot())
        units |= headMemMask;
    if (alu_slot && sfuInflight < cfg.sfuInflightCap)
        units |= headSfuMask;
    if (alu_slot && aluInflight < cfg.aluInflightCap)
        units |= ~(headMemMask | headSfuMask);
    return decodedMask & ~(depMemMask | depAluMask) & units;
}

void
SmCore::issueStage()
{
    issuedThisCycle = 0;
    aluIssuedThisCycle = 0;

    for (int s = 0; s < cfg.numSchedulers; ++s) {
        // Unit state changes with every issue, so each scheduler sees
        // the ready set as the schedulers before it left it.
        const std::uint64_t ready =
            readyHeads(aluIssuedThisCycle) & schedMask[s];
        if (ready == 0)
            continue;

        // Greedy warp first, else the first ready warp in the
        // age-sorted schedList (oldest first; LRR starts at its
        // rotating pointer). The list is rebuilt only on
        // dispatch/retire.
        int w = (cfg.sched == SchedPolicy::Gto) ? greedyWarp[s] : -1;
        if (w < 0 || !((ready >> w) & 1)) {
            if (schedListDirty)
                rebuildSchedLists();
            const auto &list = schedList[s];
            const std::size_t n = list.size();
            std::size_t i = (cfg.sched == SchedPolicy::Lrr)
                                ? std::size_t(lrrPtr[s]) % n
                                : 0;
            std::size_t k = 0;
            while (k < n && !((ready >> list[i]) & 1)) {
                ++k;
                if (++i == n)
                    i = 0;
            }
            bwsim_assert(k < n,
                         "core %d: ready warp missing from schedList",
                         cfg.coreId);
            w = list[i];
        }

        WarpInstData &inst = ibufAt(w, 0);
        if (inst.isMem()) {
            lsuAllocSlot(w, inst);
            if (inst.op == Op::Load) {
                scoreboard.setPending(w, inst.dest, PendingKind::Mem);
                ++ctr.loadsIssued;
            } else {
                ++ctr.storesIssued;
            }
        } else {
            if (inst.dest >= 0)
                scoreboard.setPending(w, inst.dest, PendingKind::Alu);
            auto &pipe = (inst.op == Op::Sfu) ? sfuPipe : aluPipe;
            pipe.push({w, inst.dest}, cycle + inst.latency);
            if (inst.op == Op::Sfu)
                ++sfuInflight;
            else
                ++aluInflight;
            ++aluIssuedThisCycle;
        }
        popIbufHead(w);
        ++issuedThisCycle;
        ++ctr.issuedInsts;

        if (cfg.sched == SchedPolicy::Gto)
            greedyWarp[s] = w;
        else
            lrrPtr[s] = lrrPtr[s] + 1;
    }
}

void
SmCore::execStage()
{
    while (aluPipe.ready(cycle)) {
        auto [w, reg] = aluPipe.pop();
        if (reg >= 0) {
            scoreboard.clear(w, reg);
            refreshDep(w);
        }
        --aluInflight;
        retireDirty = true;
    }
    while (sfuPipe.ready(cycle)) {
        auto [w, reg] = sfuPipe.pop();
        if (reg >= 0) {
            scoreboard.clear(w, reg);
            refreshDep(w);
        }
        --sfuInflight;
        retireDirty = true;
    }
}

void
SmCore::pendingAccessDone(int pending_idx)
{
    PendingMemOp &p = pendingOps[pending_idx];
    bwsim_assert(p.valid, "completion for an empty pending op");
    bwsim_assert(p.remaining > 0, "pending op completion underflow");
    --p.remaining;
    if (p.remaining > 0)
        return;
    // Whole warp memory instruction complete (the paper's "tail
    // request" semantics: the warp resumes only when its last access
    // returns).
    if (!p.write && p.destReg >= 0) {
        scoreboard.clear(p.warpId, p.destReg);
        refreshDep(p.warpId);
    }
    bwsim_assert(warpPendingLsu[p.warpId] > 0,
                 "warp LSU accounting underflow");
    --warpPendingLsu[p.warpId];
    updateWarpBits(p.warpId);
    p.valid = false;
    pendingFree.push_back(pending_idx);
    retireDirty = true;
}

void
SmCore::memStage(double now_ps)
{
    // Retire L1 hit completions that reached data-ready this cycle.
    while (hitPipe.ready(cycle)) {
        int idx = hitPipe.pop();
        pendingAccessDone(idx);
    }

    if (lsuOccupied == 0)
        return;

    // Present the oldest buffered access to the L1D (one per cycle).
    LsuSlot &s = lsu[lsuHead];

    // Batched retry: a stalled L1D access leaves the cache untouched,
    // and L1 stall outcomes are pure functions of cache state (no data
    // port, no response queue at L1). While the L1D version and the
    // presented access are both unchanged, replay the stall-cause
    // count instead of re-probing.
    if (memRetryValid && l1dCache->version() == memRetryVer &&
        s.seq == memRetrySeq && s.nextIdx == memRetryIdx) {
        l1dCache->countStall(memRetryCause);
        return;
    }

    CacheAccess acc;
    acc.lineAddr = s.addrs[s.nextIdx];
    acc.write = s.write;
    acc.storeBytes = s.storeBytes;
    // A fully-coalesced warp load touches one line's worth of data;
    // divergence spreads that footprint over the coalesced lines, in
    // 32 B transaction quanta. This demand sizes the fetch/reply under
    // the bypass and sectored hierarchy variants.
    std::uint32_t per_line = static_cast<std::uint32_t>(divCeil(
        cfg.l1d.lineBytes, static_cast<std::uint32_t>(s.addrs.size())));
    acc.dataBytes = demandTransferBytes(per_line, kDemandQuantumBytes,
                                        cfg.l1d.lineBytes);
    acc.warpId = s.warpId;
    acc.slotId = s.pendingIdx;
    CacheOutcome out = l1dCache->access(acc, cycle, now_ps);
    if (isStallOutcome(out)) {
        if (out != CacheOutcome::StallPortBusy) {
            // PortBusy depends on the cycle, not just cache state:
            // never memoize it (L1s are portless in every preset).
            memRetryValid = true;
            memRetryVer = l1dCache->version();
            memRetrySeq = s.seq;
            memRetryIdx = s.nextIdx;
            memRetryCause = CacheModel::stallCauseOf(out);
        }
        return; // L1 counted the cause; retry next cycle
    }
    ++ctr.l1Accesses;
    int pending_idx = s.pendingIdx;
    ++s.nextIdx;
    if (s.nextIdx >= s.addrs.size()) {
        // All accesses accepted: free the buffer slot; the PendingMemOp
        // lives on until the tail access completes.
        s.addrs.clear();
        if (++lsuHead == int(lsu.size()))
            lsuHead = 0;
        --lsuOccupied;
    }
    switch (out) {
      case CacheOutcome::HitServiced:
        hitPipe.push(pending_idx, cycle + cfg.l1d.hitLatency);
        break;
      case CacheOutcome::WriteForwarded:
        pendingAccessDone(pending_idx);
        break;
      case CacheOutcome::MissIssued:
      case CacheOutcome::MissMerged:
        break; // completion arrives with the fill
      default:
        panic("unexpected L1D outcome %s", cacheOutcomeName(out));
    }
}

void
SmCore::retireFinishedWarps()
{
    if (!retireDirty)
        return;
    retireDirty = false;
    // Snapshot: retiring a warp clears its own candidate bit.
    for (std::uint64_t m = retireCandMask; m; m &= m - 1) {
        int w = __builtin_ctzll(m);
        Warp &warp = warps[w];
        if (warpPendingLsu[w] > 0 || scoreboard.anyPending(w))
            continue;
        wflags[w] = 0;
        updateWarpBits(w);
        warp.cursor.reset();
        --liveWarps;
        ++ctr.warpsCompleted;
        CtaSlot &cta = ctas[warp.ctaSlot];
        bwsim_assert(cta.active && cta.warpsLeft > 0,
                     "warp retired into an inactive CTA");
        if (--cta.warpsLeft == 0) {
            cta.active = false;
            --activeCtas;
            ++ctr.ctasCompleted;
        }
        schedListDirty = true;
    }
}

IssueStall
SmCore::stallCause() const
{
    if (decodedMask == 0) {
        // Nothing decoded anywhere: fetch-starved, unless every live
        // warp is merely draining its last memory/ALU operations.
        if (unfetchedMask != 0)
            return IssueStall::Fetch;
        if (memPendingMask != 0)
            return IssueStall::DataMem; // draining the memory tail
        return IssueStall::DataAlu;     // draining the exec pipes
    }
    // No warp issued, so every decoded warp was examined and is either
    // hazard-blocked or waiting on its unit; structural stalls outrank
    // data stalls, memory outranks ALU.
    const std::uint64_t hazard_free =
        decodedMask & ~(depMemMask | depAluMask);
    if ((hazard_free & headMemMask) != 0)
        return IssueStall::StrMem;
    if (hazard_free != 0)
        return IssueStall::StrAlu;
    if ((decodedMask & depMemMask) != 0)
        return IssueStall::DataMem;
    return IssueStall::DataAlu;
}

void
SmCore::classifyStallCycle()
{
    if (issuedThisCycle > 0) {
        ++ctr.issuedCycles;
        return;
    }
    if (liveWarps == 0)
        return; // idle core: no work resident, not a stall
    ++ctr.issueStalls[static_cast<unsigned>(stallCause())];
}

void
SmCore::tick(double now_ps)
{
    ++cycle;
    ++ctr.cycles;
    if (!finishedLatched)
        ++ctr.activeCycles;

    maybeDispatchCtas();
    execStage();
    memStage(now_ps);
    issueStage();
    classifyStallCycle();
    fetchStage(now_ps);
    retireFinishedWarps();
    if (activeCtas < cfg.maxCtasResident)
        maybeDispatchCtas();

    if (!finishedLatched && done())
        finishedLatched = true;
}

std::uint64_t
SmCore::quiesceHorizon()
{
    // Any stage that could act on the very next tick in a way a bulk
    // charge cannot reproduce pins the horizon at 0: dispatch, a
    // retire scan, or the finish latch.
    if (source && activeCtas < cfg.maxCtasResident && source->hasWork())
        return 0;
    if (retireDirty)
        return 0;
    if (!finishedLatched && done())
        return 0;

    // A buffered LSU access whose stall cause is memoized against the
    // current L1D version does not pin: each slept cycle is exactly
    // one replayed countStall() on the oldest slot, charged in bulk by
    // skipCycles(). An unmemoized (or stale) access must tick to
    // re-probe.
    if (lsuOccupied > 0) {
        const LsuSlot &s = lsu[lsuHead];
        if (!(memRetryValid && l1dCache->version() == memRetryVer &&
              s.seq == memRetrySeq && s.nextIdx == memRetryIdx)) {
            return 0;
        }
    }

    // Likewise for fetch: the round-robin scan visits only eligible
    // warps, so if every one of them has a memoized stall against the
    // current L1I version, each slept cycle is one replayed
    // countStall() for the warp the rotation lands on -- integrable in
    // closed form (see integrateFetchRotation). Any eligible warp
    // without a valid memo must tick to probe the I-cache.
    if (fetchEligible != 0) {
        for (std::uint64_t m = fetchEligible; m; m &= m - 1) {
            if (fetchMemoVer[__builtin_ctzll(m)] != l1iCache->version())
                return 0;
        }
    }

    // Any decoded warp that could issue next tick pins the horizon
    // (the issue stage starts each cycle with no ALU issues). If none
    // can, every slept cycle classifies as the same frozen stall.
    if (readyHeads(0) != 0)
        return 0;
    skipStallCause = stallCause();

    // Earliest pipe completion, relative to the pre-incremented cycle
    // counter (an event at cycle value X fires on the tick that makes
    // the counter X).
    std::uint64_t h = kInfiniteHorizon;
    auto event = [this, &h](Cycle ready) {
        h = std::min(h,
                     ready > cycle + 1
                         ? static_cast<std::uint64_t>(ready - cycle - 1)
                         : std::uint64_t(0));
    };
    if (!aluPipe.empty())
        event(aluPipe.frontReady());
    if (!sfuPipe.empty())
        event(sfuPipe.frontReady());
    if (!hitPipe.empty())
        event(hitPipe.frontReady());
    return h;
}

void
SmCore::integrateFetchRotation(std::uint64_t n)
{
    // Reproduce n iterations of the fetch round-robin in closed form:
    // each cycle visits the first eligible warp at or after fetchPtr
    // (wrapping), replays its memoized stall, and advances fetchPtr
    // past it. With eligibility frozen, the visit sequence walks the
    // eligible set in circular ascending order, so warp i of the
    // rotation gets floor(n/m) or ceil(n/m) replayed stalls.
    int order[64];
    int m = 0;
    for (std::uint64_t mask = fetchEligible; mask; mask &= mask - 1)
        order[m++] = __builtin_ctzll(mask);
    int k0 = 0;
    while (k0 < m && order[k0] < fetchPtr)
        ++k0;
    if (k0 == m)
        k0 = 0;
    for (int i = 0; i < m; ++i) {
        std::uint64_t q =
            n / m + (std::uint64_t(i) < n % std::uint64_t(m) ? 1 : 0);
        if (q == 0)
            break; // later rotation positions get even fewer visits
        int w = order[(k0 + i) % m];
        l1iCache->countStalls(
            static_cast<CacheStallCause>(fetchMemoCause[w]), q);
    }
    int last = order[(k0 + int((n - 1) % std::uint64_t(m))) % m];
    fetchPtr = (last + 1) % int(warps.size());
}

void
SmCore::skipCycles(std::uint64_t n)
{
    cycle += n;
    ctr.cycles += n;
    if (!finishedLatched)
        ctr.activeCycles += n;
    // No issue is possible while the SM sleeps, so every cycle
    // classifies as the frozen stall cause (or as idle with no warps
    // resident).
    if (liveWarps > 0)
        ctr.issueStalls[static_cast<unsigned>(skipStallCause)] += n;
    // Memoized retries: the horizon only let the SM sleep because the
    // memos below were valid, and no state they consult can have
    // changed since (a sleeping SM's state changes only during its own
    // visit, and it is charged before that visit), so re-deriving from
    // live state replays exactly what n lockstep ticks would have
    // counted.
    if (lsuOccupied > 0)
        l1dCache->countStalls(memRetryCause, n);
    if (fetchEligible != 0)
        integrateFetchRotation(n);
}

bool
SmCore::done() const
{
    if (liveWarps > 0 || activeCtas > 0)
        return false;
    if (source && source->hasWork())
        return false;
    return aluInflight == 0 && sfuInflight == 0;
}

MemFetch *
SmCore::peekOutgoing()
{
    bwsim_assert(hasOutgoing(), "peekOutgoing with nothing pending");
    bool d_first = outgoingToggle || l1iCache->missQueueEmpty();
    if (!l1dCache->missQueueEmpty() && d_first)
        return l1dCache->missQueueFront();
    if (!l1iCache->missQueueEmpty())
        return l1iCache->missQueueFront();
    return l1dCache->missQueueFront();
}

void
SmCore::popOutgoing()
{
    bwsim_assert(hasOutgoing(), "popOutgoing with nothing pending");
    bool d_first = outgoingToggle || l1iCache->missQueueEmpty();
    outgoingToggle = !outgoingToggle;
    MemFetch *mf;
    if (!l1dCache->missQueueEmpty() && d_first)
        mf = l1dCache->missQueuePop();
    else if (!l1iCache->missQueueEmpty())
        mf = l1iCache->missQueuePop();
    else
        mf = l1dCache->missQueuePop();
    ctr.reqBytesOut += mf->requestBytes();
}

void
SmCore::deliverResponse(MemFetch *mf, double now_ps)
{
    mf->tReplyBack = now_ps;
    ctr.replyBytesIn += mf->replyBytes();
    if (mf->type == AccessType::GlobalRead) {
        double lat_cycles = (now_ps - mf->tLeftL1) / cfg.corePeriodPs;
        ctr.memLatSum += lat_cycles;
        ++ctr.memLatCount;
        if (mf->servicedBy == ServicedBy::L2) {
            ctr.l2HitLatSum += lat_cycles;
            ++ctr.l2HitLatCount;
        }
    }

    if (mf->l1Bypass) {
        // Bypassed read: nothing to fill -- the reply completes the
        // waiting LSU slot directly.
        pendingAccessDone(mf->slotId);
        alloc->free(mf);
        return;
    }

    fillWoken.clear();
    CacheModel &target = mf->isInstFetch() ? *l1iCache : *l1dCache;
    bool ok = target.fill(mf, cycle, now_ps, fillWoken);
    bwsim_assert(ok, "L1 fill refused (L1s have no response queue)");
    for (const auto &w : fillWoken) {
        if (w.isInstFetch) {
            bwsim_assert(wflags[w.warpId] & WfWaitingIFetch,
                         "I-fetch wake for a warp that is not waiting");
            wflags[w.warpId] &= ~WfWaitingIFetch;
            updateWarpBits(w.warpId);
        } else {
            pendingAccessDone(w.slotId);
        }
    }
    alloc->free(mf);
}

} // namespace bwsim
