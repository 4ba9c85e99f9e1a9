/** @file Unit tests for the flit-based crossbar networks. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "icnt/crossbar.hh"

using namespace bwsim;

namespace
{

NetworkParams
smallNet(std::uint32_t flit = 32)
{
    NetworkParams p;
    p.name = "t";
    p.numSources = 4;
    p.numDests = 3;
    p.flitBytes = flit;
    p.injQueuePackets = 4;
    p.ejQueuePackets = 4;
    p.transitLatency = 2;
    return p;
}

} // namespace

TEST(Crossbar, SingleRequestDelivery)
{
    CrossbarNetwork net(smallNet());
    MemFetch mf;
    net.inject(0, 1, &mf, 8, 0.0); // 8B -> 1 flit
    // 1 flit + 2 transit cycles.
    net.tick();
    EXPECT_FALSE(net.ejectReady(1));
    net.tick();
    net.tick();
    ASSERT_TRUE(net.ejectReady(1));
    EXPECT_EQ(net.ejectPop(1), &mf);
    EXPECT_EQ(net.counters().packetsEjected, 1u);
    EXPECT_EQ(net.counters().flitsTransferred, 1u);
}

TEST(Crossbar, FlitCountByPacketSize)
{
    CrossbarNetwork net(smallNet(32));
    MemFetch mf;
    net.inject(0, 0, &mf, 136, 0.0); // 136B -> 5 flits of 32B
    for (int i = 0; i < 5 + 2; ++i)
        net.tick();
    ASSERT_TRUE(net.ejectReady(0));
    EXPECT_EQ(net.counters().flitsTransferred, 5u);
    net.ejectPop(0);
}

TEST(Crossbar, WiderFlitsFewerCycles)
{
    CrossbarNetwork wide(smallNet(68));
    MemFetch mf;
    wide.inject(0, 0, &mf, 136, 0.0); // 2 flits of 68B
    for (int i = 0; i < 2 + 2; ++i)
        wide.tick();
    ASSERT_TRUE(wide.ejectReady(0));
    EXPECT_EQ(wide.counters().flitsTransferred, 2u);
    wide.ejectPop(0);
}

TEST(Crossbar, InjectionQueueCapacity)
{
    CrossbarNetwork net(smallNet());
    MemFetch mf;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(net.canAccept(2));
        net.inject(2, 0, &mf, 8, 0.0);
    }
    EXPECT_FALSE(net.canAccept(2));
    EXPECT_TRUE(net.canAccept(3)); // other sources unaffected
}

TEST(Crossbar, EjectionBackPressure)
{
    NetworkParams p = smallNet();
    p.ejQueuePackets = 1;
    CrossbarNetwork net(p);
    MemFetch a, b;
    net.inject(0, 0, &a, 8, 0.0);
    net.inject(1, 0, &b, 8, 0.0);
    for (int i = 0; i < 12; ++i)
        net.tick();
    // Only one packet can sit in the ejection queue; the other is
    // stuck behind the reservation until we pop.
    ASSERT_TRUE(net.ejectReady(0));
    EXPECT_EQ(net.packetsInFlight(), 2u);
    net.ejectPop(0);
    for (int i = 0; i < 12; ++i)
        net.tick();
    ASSERT_TRUE(net.ejectReady(0));
    net.ejectPop(0);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_GT(net.counters().ejectBlockedCycles, 0u);
}

TEST(Crossbar, RoundRobinFairness)
{
    CrossbarNetwork net(smallNet());
    MemFetch mfs[4];
    // All four sources target dest 0 with single-flit packets.
    for (std::uint32_t s = 0; s < 4; ++s)
        net.inject(s, 0, &mfs[s], 8, 0.0);
    std::vector<const MemFetch *> order;
    for (int i = 0; i < 40 && order.size() < 4; ++i) {
        net.tick();
        while (net.ejectReady(0))
            order.push_back(net.ejectPop(0));
    }
    ASSERT_EQ(order.size(), 4u);
    // Every source must be served exactly once (no starvation).
    std::set<const MemFetch *> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), 4u);
}

TEST(Crossbar, WormholeNotInterleaved)
{
    // While a multi-flit packet is in progress to a dest, another
    // source cannot inject flits to that dest in between.
    CrossbarNetwork net(smallNet());
    MemFetch big, small;
    net.inject(0, 0, &big, 136, 0.0);  // 5 flits
    net.inject(1, 0, &small, 8, 0.0);  // 1 flit
    std::vector<const MemFetch *> order;
    for (int i = 0; i < 30 && order.size() < 2; ++i) {
        net.tick();
        while (net.ejectReady(0))
            order.push_back(net.ejectPop(0));
    }
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], &big); // granted first, finishes first
    EXPECT_EQ(order[1], &small);
}

/** Conservation: every injected packet is ejected exactly once. */
class CrossbarConservation : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CrossbarConservation, ManyRandomPackets)
{
    NetworkParams p = smallNet(GetParam());
    CrossbarNetwork net(p);
    std::vector<MemFetch> packets(400);
    std::uint64_t seed = 12345;
    std::size_t injected = 0, ejected = 0;
    for (int cycle = 0; cycle < 8000 && ejected < packets.size();
         ++cycle) {
        if (injected < packets.size()) {
            seed = seed * 6364136223846793005ull + 1;
            std::uint32_t src = (seed >> 32) % p.numSources;
            std::uint32_t dst = (seed >> 40) % p.numDests;
            std::uint32_t bytes = 8 + (seed >> 48) % 130;
            if (net.canAccept(src)) {
                net.inject(src, dst, &packets[injected], bytes, 0.0);
                ++injected;
            }
        }
        net.tick();
        for (std::uint32_t d = 0; d < p.numDests; ++d)
            while (net.ejectReady(d)) {
                net.ejectPop(d);
                ++ejected;
            }
    }
    EXPECT_EQ(injected, packets.size());
    EXPECT_EQ(ejected, packets.size());
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(net.counters().packetsInjected,
              net.counters().packetsEjected);
}

INSTANTIATE_TEST_SUITE_P(FlitSizes, CrossbarConservation,
                         ::testing::Values(16u, 32u, 48u, 52u, 68u, 128u));

TEST(Interconnect, TwoIndependentNetworks)
{
    NetworkParams req = smallNet();
    NetworkParams reply = smallNet();
    reply.numSources = 3;
    reply.numDests = 4;
    Interconnect icnt(req, reply);
    MemFetch a, b;
    icnt.request().inject(0, 2, &a, 8, 0.0);
    icnt.reply().inject(2, 0, &b, 136, 0.0);
    for (int i = 0; i < 10; ++i)
        icnt.tick();
    EXPECT_TRUE(icnt.request().ejectReady(2));
    EXPECT_TRUE(icnt.reply().ejectReady(0));
    icnt.request().ejectPop(2);
    icnt.reply().ejectPop(0);
    EXPECT_EQ(icnt.packetsInFlight(), 0u);
}

TEST(Crossbar, RoundRobinFairnessUnderContention)
{
    // All four sources hammer destination 0 with single-flit packets;
    // round-robin arbitration must not starve anyone: delivered counts
    // stay within one packet of each other at all times.
    NetworkParams p = smallNet();
    CrossbarNetwork net(p);
    MemFetch mfs[4];
    int delivered[4] = {0, 0, 0, 0};

    for (int cycle = 0; cycle < 64; ++cycle) {
        for (std::uint32_t s = 0; s < 4; ++s)
            if (net.canAccept(s))
                net.inject(s, 0, &mfs[s], 8, 0.0);
        net.tick();
        while (net.ejectReady(0)) {
            MemFetch *mf = net.ejectPop(0);
            int src = int(mf - &mfs[0]);
            ASSERT_GE(src, 0);
            ASSERT_LT(src, 4);
            ++delivered[src];
        }
        int lo = delivered[0], hi = delivered[0];
        for (int s = 1; s < 4; ++s) {
            lo = std::min(lo, delivered[s]);
            hi = std::max(hi, delivered[s]);
        }
        EXPECT_LE(hi - lo, 1) << "at cycle " << cycle;
    }
    int total = delivered[0] + delivered[1] + delivered[2] + delivered[3];
    EXPECT_GT(total, 40); // one per cycle minus pipeline fill
}

TEST(Crossbar, EjectionBackpressureBlocksAndRecovers)
{
    // Nobody pops destination 0: the ejection buffer plus in-transit
    // reservations fill, the output port blocks (counted), and no
    // packet is ever lost -- everything drains once the consumer pops.
    NetworkParams p = smallNet();
    CrossbarNetwork net(p);
    MemFetch mf;
    std::uint64_t injected = 0;

    for (int cycle = 0; cycle < 40; ++cycle) {
        for (std::uint32_t s = 0; s < 4; ++s)
            if (net.canAccept(s)) {
                net.inject(s, 0, &mf, 8, 0.0);
                ++injected;
            }
        net.tick();
    }
    EXPECT_GT(net.counters().ejectBlockedCycles, 0u);
    // Un-popped deliveries pile up to at most the ejection capacity.
    EXPECT_LE(net.counters().packetsEjected, p.ejQueuePackets);
    std::uint64_t popped = 0;
    for (int cycle = 0; cycle < 200 && net.packetsInFlight() > 0;
         ++cycle) {
        while (net.ejectReady(0)) {
            net.ejectPop(0);
            ++popped;
        }
        net.tick();
    }
    while (net.ejectReady(0)) {
        net.ejectPop(0);
        ++popped;
    }
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(popped, injected);
    EXPECT_EQ(net.counters().packetsEjected, injected);
}

TEST(Crossbar, WormholeHoldsGrantForMultiFlitPacket)
{
    // A 4-flit packet from source 0 and a 1-flit packet from source 1
    // contend for destination 0. Wormhole switching keeps the grant
    // with the multi-flit packet until its tail flit, so source 1's
    // packet is delivered only afterwards.
    NetworkParams p = smallNet(32);
    CrossbarNetwork net(p);
    MemFetch big, small;
    net.inject(0, 0, &big, 128, 0.0); // 4 flits
    net.inject(1, 0, &small, 8, 0.0); // 1 flit

    std::vector<MemFetch *> order;
    for (int cycle = 0; cycle < 20; ++cycle) {
        net.tick();
        while (net.ejectReady(0))
            order.push_back(net.ejectPop(0));
    }
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], &big);
    EXPECT_EQ(order[1], &small);
    EXPECT_EQ(net.counters().flitsTransferred, 5u);
}

TEST(Crossbar, ContentionIsPerDestination)
{
    // Packets to distinct destinations never contend: four sources to
    // four... (3 dests here) -- three parallel deliveries per cycle.
    NetworkParams p = smallNet();
    CrossbarNetwork net(p);
    MemFetch mfs[3];
    for (std::uint32_t s = 0; s < 3; ++s)
        net.inject(s, s, &mfs[s], 8, 0.0);
    for (int cycle = 0; cycle < 3; ++cycle)
        net.tick();
    for (std::uint32_t d = 0; d < 3; ++d) {
        ASSERT_TRUE(net.ejectReady(d)) << "dest " << d;
        EXPECT_EQ(net.ejectPop(d), &mfs[d]);
    }
}

/**
 * The port-state bitmasks the per-SM wake relies on must equal the
 * queue predicates after every operation: a seeded random mix of
 * inject / tick / ejectPop on small queues, so both bits toggle
 * often. The 64-port shape covers the top mask bit.
 */
TEST(Crossbar, PortMasksTrackQueuesUnderRandomOps)
{
    struct Shape
    {
        std::uint32_t sources, dests;
    };
    for (Shape shape : {Shape{5, 4}, Shape{64, 64}}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            NetworkParams p = smallNet(32);
            p.numSources = shape.sources;
            p.numDests = shape.dests;
            p.injQueuePackets = 2;
            p.ejQueuePackets = 1 + static_cast<std::uint32_t>(seed % 2);
            CrossbarNetwork net(p);
            std::vector<MemFetch> packets(4000);
            std::size_t used = 0;
            bool saw_full = false, saw_ready = false;
            Rng rng(seed);
            for (int step = 0; step < 3000; ++step) {
                const std::uint64_t op = rng.below(3);
                if (op == 0 && used < packets.size()) {
                    const auto src =
                        static_cast<std::uint32_t>(rng.below(p.numSources));
                    const auto dst =
                        static_cast<std::uint32_t>(rng.below(p.numDests));
                    if (net.canAccept(src)) {
                        net.inject(src, dst, &packets[used++],
                                   8 + static_cast<std::uint32_t>(
                                           rng.below(100)),
                                   0.0);
                    }
                } else if (op == 1) {
                    net.tick();
                } else {
                    const auto dst =
                        static_cast<std::uint32_t>(rng.below(p.numDests));
                    if (net.ejectReady(dst))
                        net.ejectPop(dst);
                }
                for (std::uint32_t d = 0; d < p.numDests; ++d) {
                    ASSERT_EQ((net.ejectReadyMask() >> d) & 1,
                              net.ejectReady(d) ? 1u : 0u)
                        << "seed " << seed << " step " << step
                        << " dest " << d;
                }
                for (std::uint32_t src = 0; src < p.numSources; ++src) {
                    ASSERT_EQ((net.injectFullMask() >> src) & 1,
                              net.canAccept(src) ? 0u : 1u)
                        << "seed " << seed << " step " << step
                        << " source " << src;
                }
                saw_full |= net.injectFullMask() != 0;
                saw_ready |= net.ejectReadyMask() != 0;
            }
            EXPECT_TRUE(saw_ready) << "seed " << seed;
            if (shape.sources < 64) {
                EXPECT_TRUE(saw_full) << "seed " << seed;
            }
        }
    }
}
