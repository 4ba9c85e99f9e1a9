#include "dram/memory_partition.hh"

#include <algorithm>

#include "sim/clock.hh"
#include "stats/stat.hh"

namespace bwsim
{

MemoryPartition::MemoryPartition(const PartitionParams &params,
                                 MemFetchAllocator *allocator,
                                 Interconnect *icnt_)
    : cfg(params), alloc(allocator), icnt(icnt_)
{
    bwsim_assert(alloc && icnt, "partition %d needs allocator and icnt",
                 cfg.partitionId);
    banks.reserve(cfg.banksPerPartition);
    accessQ.reserve(cfg.banksPerPartition);
    localBank.assign(64, 0);
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
        CacheParams p = cfg.l2Bank;
        p.name = csprintf("l2_p%u_b%u", cfg.partitionId, b);
        banks.push_back(std::make_unique<CacheModel>(p, alloc, -1));
        accessQ.emplace_back(cfg.accessQueueEntries);
        bwsim_assert(globalBankId(b) < 64,
                     "bank masks support at most 64 L2 banks");
        allBanks |= bankBit(b);
        localBank[globalBankId(b)] = static_cast<std::uint8_t>(b);
    }
    fillMemoVer.assign(cfg.banksPerPartition, ~std::uint64_t(0));
    accessMemoVer.assign(cfg.banksPerPartition, ~std::uint64_t(0));
    accessMemoCause.assign(cfg.banksPerPartition, 0);
    bankSleep.resize(cfg.banksPerPartition);
    if (!cfg.idealDram) {
        DramParams dp = cfg.dram;
        dp.numPartitions = cfg.numPartitions;
        channel = std::make_unique<DramChannel>(dp, alloc, cfg.partitionId);
    }
}

void
MemoryPartition::registerStats(stats::Group &parent)
{
    stats::Group &g =
        parent.createChild(csprintf("part%d", cfg.partitionId));
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b)
        banks[b]->registerStats(g, csprintf("l2b%u", b));
    if (channel) {
        channel->registerStats(g);
    } else {
        g.bindScalar("ideal_dram_bytes_read",
                     "data bytes read through the ideal-DRAM pipe",
                     idealBytesRead);
        g.bindScalar("ideal_dram_bytes_written",
                     "data bytes sunk by the ideal-DRAM write sink",
                     idealBytesWritten);
    }
    accessQHist.registerStats(
        g, "l2_access_occ",
        "L2 access-queue occupancy bands (Fig. 4)");
    dramQHist.registerStats(g, "dram_occ",
                            "DRAM scheduler-queue occupancy bands "
                            "(Fig. 5)");
}

void
MemoryPartition::pullFromNetwork(std::uint32_t b)
{
    std::uint32_t gid = globalBankId(b);
    auto &req = icnt->request();
    if (!req.ejectReady(gid) || accessQ[b].full())
        return;
    MemFetch *mf = req.ejectPop(gid);
    bool ok = accessQ[b].push(mf, l2Cycle + cfg.ropLatency);
    bwsim_assert(ok, "access queue overflow in partition %d",
                 cfg.partitionId);
}

void
MemoryPartition::tickL2(double now_ps)
{
    ++l2Cycle;

    // Visit the awake banks plus the sleeping ones a port or time
    // wake names, in ascending bank order. The fill target is re-read
    // after each visit: a fill pops the shared return head, and the
    // next head may name a higher, sleeping bank that lockstep serves
    // this same cycle. Banks at or below the cursor stay passed.
    std::uint64_t visit = allBanks & ~asleep;
    if (asleep != 0)
        visit |= wokenBanks();
    std::uint64_t passed = 0;
    std::uint32_t visited = 0;
    for (;;) {
        std::uint64_t active = visit;
        if (asleep != 0)
            active |= fillWake();
        active &= ~passed;
        if (active == 0)
            break;
        const std::uint32_t gid =
            static_cast<std::uint32_t>(__builtin_ctzll(active));
        passed |= ~std::uint64_t(0) >> (63 - gid);
        const std::uint32_t b = localBank[gid];
        if (asleep & (std::uint64_t(1) << gid))
            wakeBank(b, l2Cycle - 1);
        tickBank(b, now_ps);
        ++visited;
        if (sleepOn)
            maybeSleepBank(b);
    }
    bankSleptTicks += cfg.banksPerPartition - visited;
}

void
MemoryPartition::tickBank(std::uint32_t b, double now_ps)
{
    CacheModel &bank = *banks[b];
    const std::uint32_t gid = globalBankId(b);

    // 1. Response queue -> reply network (one packet per cycle).
    if (bank.respQueueReady(l2Cycle) && icnt->reply().canAccept(gid)) {
        MemFetch *mf = bank.respQueuePop();
        bwsim_assert(mf->coreId >= 0, "reply with no destination core: %s",
                     mf->toString().c_str());
        icnt->reply().inject(gid, static_cast<std::uint32_t>(mf->coreId),
                             mf, mf->replyBytes(), now_ps);
    }

    // 2. One fill per cycle from DRAM (or the ideal pipe). A refused
    // fill is a pure-state no-op, so the retry is skipped until the
    // bank mutates (see the memo members).
    if (cfg.idealDram) {
        if (idealPipe.ready(l2Cycle) && fillMemoVer[b] != bank.version()) {
            MemFetch *mf = idealPipe.front();
            if (static_cast<std::uint32_t>(mf->l2BankId) == gid) {
                std::vector<MshrWaiter> unused;
                if (bank.fill(mf, l2Cycle, now_ps, unused))
                    idealPipe.pop();
                else
                    fillMemoVer[b] = bank.version();
            }
        }
    } else {
        if (channel->returnReady() && fillMemoVer[b] != bank.version()) {
            MemFetch *mf = channel->returnFront();
            if (static_cast<std::uint32_t>(mf->l2BankId) == gid) {
                std::vector<MshrWaiter> unused;
                if (bank.fill(mf, l2Cycle, now_ps, unused)) {
                    if (chanAsleep)
                        wakeChannel(dramCycle);
                    channel->returnPop();
                } else {
                    fillMemoVer[b] = bank.version();
                }
            }
        }
    }

    // 3. Process the head of the access queue. A stalled head nets out
    // to one countStall() with a state-determined cause, so the
    // attempt is replayed from the memo until the bank mutates;
    // PortBusy depends on the clock and is re-probed.
    if (accessQ[b].ready(l2Cycle)) {
        if (accessMemoVer[b] == bank.version()) {
            bank.countStall(
                static_cast<CacheStallCause>(accessMemoCause[b]));
        } else {
            MemFetch *mf = accessQ[b].front();
            if (mf->tAtL2 == 0)
                mf->tAtL2 = now_ps;
            CacheAccess acc;
            acc.lineAddr = mf->lineAddr;
            acc.write = mf->isWrite();
            acc.storeBytes = mf->storeBytes;
            acc.warpId = mf->warpId;
            acc.slotId = mf->slotId;
            acc.isInstFetch = mf->isInstFetch();
            acc.mf = mf;
            CacheOutcome out = bank.access(acc, l2Cycle, now_ps);
            if (!isStallOutcome(out)) {
                accessQ[b].pop();
            } else if (out != CacheOutcome::StallPortBusy) {
                accessMemoVer[b] = bank.version();
                accessMemoCause[b] = static_cast<std::uint8_t>(
                    CacheModel::stallCauseOf(out));
            }
        }
    }

    // 4. Miss queue -> DRAM scheduler queue (one per cycle).
    if (!bank.missQueueEmpty()) {
        MemFetch *mf = bank.missQueueFront();
        if (cfg.idealDram) {
            mf->l2BankId = static_cast<int>(gid);
            bank.missQueuePop();
            if (mf->isWrite()) {
                idealBytesWritten += mf->storeBytes;
                alloc->free(mf); // infinite-bandwidth write sink
            } else {
                idealBytesRead += mf->fillBytes;
                idealPipe.push(mf, l2Cycle + cfg.idealDramLatency);
            }
        } else if (channel->canAccept()) {
            mf->l2BankId = static_cast<int>(gid);
            bank.missQueuePop();
            if (chanAsleep)
                wakeChannel(dramCycle);
            channel->push(mf);
        }
    }

    // 5. Pull newly ejected requests into the access queue.
    pullFromNetwork(b);

    accessQHist.sample(accessQ[b].size(), accessQ[b].capacity());
}

std::uint64_t
MemoryPartition::bankHorizon(std::uint32_t b, std::uint8_t &wakes) const
{
    const CacheModel &bank = *banks[b];
    const std::uint32_t gid = globalBankId(b);
    std::uint64_t h = kInfiniteHorizon;
    std::uint8_t port = 0;
    // 1. A ready response injects into the reply network unless the
    // port is full; the blocked injection is a pure no-op and only an
    // interconnect tick can free the port. With room, the port stays
    // free until this bank's own next injection.
    if (bank.respQueueSize() > 0) {
        if (icnt->reply().canAccept(gid))
            h = std::min(h, l2Until(bank.respQueueFrontReady()));
        else
            port |= WakeOnReplyPort;
    }
    // 3. A ready access-queue head with a valid stall memo replays
    // exactly one countStall per tick, charged in bulk on wake. An
    // unmemoized attempt is observable.
    if (!accessQ[b].empty()) {
        if (accessQ[b].ready(l2Cycle + 1)) {
            if (accessMemoVer[b] != bank.version())
                return 0;
        } else {
            h = std::min(h, l2Until(accessQ[b].frontReady()));
        }
    }
    // 4. A queued miss drains unless the DRAM scheduler queue is full
    // (ideal DRAM never back-pressures); the full case is a frozen
    // no-op until a DRAM tick frees a slot.
    if (!bank.missQueueEmpty()) {
        if (cfg.idealDram || channel->canAccept())
            return 0;
        port |= WakeOnDramSpace;
    }
    // 5. An ejected request is pulled unless the access queue is
    // full; the full case is frozen until the head access drains.
    if (!accessQ[b].full()) {
        if (icnt->request().ejectReady(gid))
            return 0;
        port |= WakeOnRequest;
    }
    wakes = port;
    return h;
}

std::uint64_t
MemoryPartition::wokenBanks()
{
    std::uint64_t w =
        (icnt->request().ejectReadyMask() & wakeOnRequest) |
        (wakeOnReplyPort & ~icnt->reply().injectFullMask());
    if (wakeOnDramSpace != 0 && channel->canAccept())
        w |= wakeOnDramSpace;
    const Cycle prev = l2Cycle - 1;
    if (prev >= nextTimedWake) {
        nextTimedWake = kInfiniteHorizon;
        for (std::uint64_t m = asleep; m; m &= m - 1) {
            const std::uint32_t gid =
                static_cast<std::uint32_t>(__builtin_ctzll(m));
            const Cycle at = bankSleep[localBank[gid]].wakeAt;
            if (prev >= at)
                w |= std::uint64_t(1) << gid;
            else
                nextTimedWake = std::min(nextTimedWake, at);
        }
    }
    return w;
}

std::uint64_t
MemoryPartition::fillWake() const
{
    const MemFetch *mf;
    if (cfg.idealDram) {
        if (!idealPipe.ready(l2Cycle))
            return 0;
        mf = idealPipe.front();
    } else {
        if (!channel->returnReady())
            return 0;
        mf = channel->returnPeek();
    }
    const std::uint32_t gid = static_cast<std::uint32_t>(mf->l2BankId);
    const std::uint64_t bit = std::uint64_t(1) << gid;
    if (!(asleep & bit))
        return 0;
    const std::uint32_t b = localBank[gid];
    return fillMemoVer[b] != banks[b]->version() ? bit : 0;
}

void
MemoryPartition::maybeSleepBank(std::uint32_t b)
{
    // Asleep, each cycle's tick would only replay a memoized stall and
    // sample the frozen access-queue occupancy until a time in the
    // horizon comes due or a port wake names the bank.
    std::uint8_t wakes = 0;
    const std::uint64_t h = bankHorizon(b, wakes);
    if (h == 0)
        return;
    BankSleep &s = bankSleep[b];
    s.wakeAt = h == kInfiniteHorizon ? kInfiniteHorizon : l2Cycle + h;
    s.sleptFrom = l2Cycle;
    nextTimedWake = std::min(nextTimedWake, s.wakeAt);
    const std::uint64_t bit = bankBit(b);
    asleep |= bit;
    if (wakes & WakeOnRequest)
        wakeOnRequest |= bit;
    if (wakes & WakeOnReplyPort)
        wakeOnReplyPort |= bit;
    if (wakes & WakeOnDramSpace)
        wakeOnDramSpace |= bit;
}

void
MemoryPartition::wakeBank(std::uint32_t b, Cycle through)
{
    // The bank's state is frozen while it sleeps, so a head ready on
    // the first owed cycle with a valid memo stalled on every one of
    // them, and the access-queue occupancy sampled the same each
    // cycle.
    const Cycle from = bankSleep[b].sleptFrom;
    const std::uint64_t owed = through - from;
    if (accessQ[b].ready(from + 1) &&
        accessMemoVer[b] == banks[b]->version()) {
        banks[b]->countStalls(
            static_cast<CacheStallCause>(accessMemoCause[b]), owed);
    }
    accessQHist.sample(accessQ[b].size(), accessQ[b].capacity(), owed);
    const std::uint64_t keep = ~bankBit(b);
    asleep &= keep;
    wakeOnRequest &= keep;
    wakeOnReplyPort &= keep;
    wakeOnDramSpace &= keep;
}

void
MemoryPartition::wakeChannel(Cycle through)
{
    const std::uint64_t owed = through - chanSleptFrom;
    channel->skipCycles(owed);
    channel->sampleOccupancy(dramQHist, owed);
    chanAsleep = false;
}

void
MemoryPartition::setSleepEnabled(bool on)
{
    sleepOn = on;
    if (on)
        return;
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b)
        if (asleep & bankBit(b))
            wakeBank(b, l2Cycle);
    nextTimedWake = kInfiniteHorizon;
    if (chanAsleep)
        wakeChannel(dramCycle);
}

void
MemoryPartition::tickDram(double now_ps)
{
    ++dramCycle;
    if (cfg.idealDram)
        return;
    if (chanAsleep) {
        if (dramCycle <= chanWakeAt) {
            ++dramSleptTicks;
            return;
        }
        wakeChannel(dramCycle - 1);
    }
    channel->tick(now_ps);
    channel->sampleOccupancy(dramQHist);
    if (!sleepOn)
        return;
    // Asleep, each tick would only charge one pendingCycles and one
    // frozen occupancy sample until the bus-sleep horizon expires or
    // the L2 side pushes or pops.
    const std::uint64_t h = channel->horizon();
    if (h == 0)
        return;
    chanAsleep = true;
    chanWakeAt = h == kInfiniteHorizon ? kInfiniteHorizon : dramCycle + h;
    chanSleptFrom = dramCycle;
}

bool
MemoryPartition::drained() const
{
    for (std::uint32_t b = 0; b < cfg.banksPerPartition; ++b) {
        if (!accessQ[b].empty() || !banks[b]->missQueueEmpty() ||
            banks[b]->mshrSize() > 0 || banks[b]->respQueueSize() > 0) {
            return false;
        }
    }
    if (channel && !channel->drained())
        return false;
    if (!idealPipe.empty())
        return false;
    return true;
}

} // namespace bwsim
