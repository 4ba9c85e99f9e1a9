#include "icnt/crossbar.hh"

#include "common/intmath.hh"

namespace bwsim
{

CrossbarNetwork::CrossbarNetwork(const NetworkParams &params) : cfg(params)
{
    bwsim_assert(cfg.numSources > 0 && cfg.numDests > 0,
                 "network '%s' needs sources and destinations",
                 cfg.name.c_str());
    bwsim_assert(cfg.flitBytes > 0, "network '%s' needs a flit size",
                 cfg.name.c_str());
    injQ.reserve(cfg.numSources);
    for (std::uint32_t s = 0; s < cfg.numSources; ++s)
        injQ.emplace_back(cfg.injQueuePackets);
    transit.resize(cfg.numDests);
    ejQ.reserve(cfg.numDests);
    for (std::uint32_t d = 0; d < cfg.numDests; ++d)
        ejQ.emplace_back(cfg.ejQueuePackets);
    reservedEj.assign(cfg.numDests, 0);
    rrPtr.assign(cfg.numDests, 0);
    grant.assign(cfg.numDests, -1);
    bwsim_assert(cfg.numSources <= 64 && cfg.numDests <= 64,
                 "network '%s': arbitration bitsets support at most 64 "
                 "ports per side",
                 cfg.name.c_str());
    wantMask.assign(cfg.numDests, 0);
}

/** The head of @p src's injection queue changed to a live packet. */
void
CrossbarNetwork::headArrived(std::uint32_t src)
{
    const Packet &head = injQ[src].front();
    wantMask[head.dst] |= std::uint64_t(1) << src;
    wantedDests |= std::uint64_t(1) << head.dst;
}

/** The head of @p src's injection queue (bound for @p dst) was popped. */
void
CrossbarNetwork::headConsumed(std::uint32_t src, std::uint32_t dst)
{
    wantMask[dst] &= ~(std::uint64_t(1) << src);
    if (wantMask[dst] == 0)
        wantedDests &= ~(std::uint64_t(1) << dst);
    if (!injQ[src].empty())
        headArrived(src);
}

void
CrossbarNetwork::registerStats(stats::Group &parent,
                               const std::string &name)
{
    stats::Group &g = parent.createChild(name);
    g.bindScalar("packets_injected", "packets accepted at the sources",
                 ctr.packetsInjected);
    g.bindScalar("packets_ejected", "packets delivered at the sinks",
                 ctr.packetsEjected);
    g.bindScalar("flits_transferred", "flits moved across the crossbar",
                 ctr.flitsTransferred);
    g.bindScalar("bytes_carried", "payload bytes accepted at the sources",
                 ctr.bytesCarried);
    g.bindScalar("bytes_ejected", "payload bytes popped at the sinks",
                 ctr.bytesEjected);
    g.bindScalar("eject_blocked_cycles",
                 "output-port cycles blocked on a full ejection buffer",
                 ctr.ejectBlockedCycles);
}

bool
CrossbarNetwork::canAccept(std::uint32_t src) const
{
    return !injQ.at(src).full();
}

void
CrossbarNetwork::inject(std::uint32_t src, std::uint32_t dst, MemFetch *mf,
                        std::uint32_t bytes, double now_ps)
{
    bwsim_assert(dst < cfg.numDests, "bad destination %u on '%s'", dst,
                 cfg.name.c_str());
    Packet p;
    p.mf = mf;
    p.dst = dst;
    p.flitsLeft =
        static_cast<std::uint32_t>(divCeil(bytes ? bytes : 1,
                                           cfg.flitBytes));
    p.bytes = bytes;
    bool ok = injQ.at(src).push(p);
    bwsim_assert(ok, "inject into full queue on '%s' (check canAccept)",
                 cfg.name.c_str());
    if (injQ[src].size() == 1)
        headArrived(src);
    if (injQ[src].full())
        injFullMask |= std::uint64_t(1) << src;
    if (mf->tInjected == 0)
        mf->tInjected = now_ps;
    ++ctr.packetsInjected;
    ctr.bytesCarried += bytes;
}

void
CrossbarNetwork::tick()
{
    ++cycle;

    // Deliver transit arrivals whose ejection slot was pre-reserved.
    // Only destinations with an occupied transit pipe are visited; the
    // ascending bit order is the original 0..N-1 port order.
    std::uint64_t tmask = transitMask;
    while (tmask) {
        std::uint32_t d =
            static_cast<std::uint32_t>(__builtin_ctzll(tmask));
        tmask &= tmask - 1;
        auto &pipe = transit[d];
        while (pipe.ready(cycle)) {
            Packet p = pipe.pop();
            bool ok = ejQ[d].push(p);
            bwsim_assert(ok, "reserved ejection slot missing on '%s'",
                         cfg.name.c_str());
            bwsim_assert(reservedEj[d] > 0, "reservation underflow");
            --reservedEj[d];
            ++ctr.packetsEjected;
            ejReadyMask |= std::uint64_t(1) << d;
        }
        if (pipe.empty())
            transitMask &= ~(std::uint64_t(1) << d);
    }

    // Each destination output port moves one flit from one source.
    // A port only has work when it holds a grant or some source's
    // head packet targets it. Eligibility is re-read at each visit
    // (not snapshotted): popping a head while serving dest d can
    // expose a new head wanting a higher-numbered dest, which the
    // original ascending 0..N-1 scan served in the same cycle.
    // Dests below the cursor stay skipped, exactly like that scan.
    std::uint64_t passed = 0; ///< dest bits at or below the cursor
    for (;;) {
        std::uint64_t active = (grantMask | wantedDests) & ~passed;
        if (!active)
            break;
        std::uint32_t d =
            static_cast<std::uint32_t>(__builtin_ctzll(active));
        passed |= ~std::uint64_t(0) >> (63 - d);
        int src = grant[d];
        if (src < 0) {
            // Arbitrate: round-robin over the sources whose head
            // packet targets this destination, provided an ejection
            // slot can be reserved. Rotating the want-bitset by the
            // round-robin pointer picks exactly the source the
            // original source-order scan would have found first.
            std::uint64_t want = wantMask[d];
            if (want == 0)
                continue;
            if (ejQ[d].size() + reservedEj[d] >= ejQ[d].capacity()) {
                ++ctr.ejectBlockedCycles;
                continue; // ejection full: port idles this cycle
            }
            std::uint64_t from = want >> rrPtr[d];
            std::uint32_t s =
                from ? rrPtr[d] + static_cast<std::uint32_t>(
                                      __builtin_ctzll(from))
                     : static_cast<std::uint32_t>(__builtin_ctzll(want));
            src = static_cast<int>(s);
            rrPtr[d] = (s + 1) % cfg.numSources;
            ++reservedEj[d];
            grant[d] = src;
            grantMask |= std::uint64_t(1) << d;
        }

        // Move one flit of the granted packet.
        Packet &head = injQ[src].front();
        bwsim_assert(head.dst == d, "grant/packet destination mismatch");
        bwsim_assert(head.flitsLeft > 0, "granted packet with no flits");
        --head.flitsLeft;
        ++ctr.flitsTransferred;
        if (head.flitsLeft == 0) {
            Packet done = injQ[src].pop();
            injFullMask &= ~(std::uint64_t(1) << src);
            headConsumed(static_cast<std::uint32_t>(src), d);
            transit[d].push(done, cycle + cfg.transitLatency);
            transitMask |= std::uint64_t(1) << d;
            grant[d] = -1;
            grantMask &= ~(std::uint64_t(1) << d);
        }
    }
}

bool
CrossbarNetwork::ejectReady(std::uint32_t dst) const
{
    return !ejQ.at(dst).empty();
}

MemFetch *
CrossbarNetwork::ejectPop(std::uint32_t dst)
{
    Packet p = ejQ.at(dst).pop();
    if (ejQ[dst].empty())
        ejReadyMask &= ~(std::uint64_t(1) << dst);
    ctr.bytesEjected += p.bytes;
    return p.mf;
}

std::size_t
CrossbarNetwork::packetsInFlight() const
{
    std::size_t n = 0;
    for (const auto &q : injQ)
        n += q.size();
    for (const auto &p : transit)
        n += p.size();
    for (const auto &q : ejQ)
        n += q.size();
    return n;
}

} // namespace bwsim
