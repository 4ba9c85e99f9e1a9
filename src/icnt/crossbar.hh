/**
 * @file
 * Flit-based crossbar interconnect (GPGPU-Sim "fly" network).
 *
 * The chip has two independent networks: a request network from the 15
 * SIMT cores to the 12 L2 banks and a reply network back. Each network
 * is a full crossbar: every destination output port accepts one flit
 * per interconnect cycle from one source, selected round-robin among
 * sources whose head packet targets it (wormhole: a packet in progress
 * keeps its grant until its last flit).
 *
 * The flit size of each network is an independent parameter: the
 * baseline is 32+32 bytes, and the paper's cost-effective asymmetric
 * configurations (16+48, 16+68, 32+52) simply re-partition (or
 * slightly grow) the point-to-point wire budget between the two
 * networks (§VII-B).
 *
 * A destination only wins arbitration if a slot in its ejection buffer
 * can be reserved, so a full ejection buffer (an L2 access queue that
 * cannot drain, or a core response FIFO that is not being consumed)
 * back-pressures the network and ultimately the injection queues --
 * the "bp-ICNT"/"bp-L2" chains of Figs. 8 and 9.
 */

#ifndef BWSIM_ICNT_CROSSBAR_HH
#define BWSIM_ICNT_CROSSBAR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/mem_fetch.hh"
#include "sim/queue.hh"
#include "stats/occupancy_hist.hh"
#include "stats/stat.hh"

namespace bwsim
{

/** Configuration for one direction of the interconnect. */
struct NetworkParams
{
    std::string name = "net";
    std::uint32_t numSources = 15;
    std::uint32_t numDests = 12;
    std::uint32_t flitBytes = 32;
    /** Injection buffer per source, in packets. */
    std::uint32_t injQueuePackets = 8;
    /** Ejection buffer per destination, in packets. */
    std::uint32_t ejQueuePackets = 2;
    /** Router/wire pipeline latency after the last flit, in net cycles. */
    std::uint32_t transitLatency = 4;
};

/** Counters for one network direction. */
struct NetworkCounters
{
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t flitsTransferred = 0;
    /** Payload bytes accepted at the sources (the injection-side edge
     *  of the network; a gpu.bw formula input). */
    std::uint64_t bytesCarried = 0;
    /** Payload bytes popped at the sinks (the ejection-side edge).
     *  With everything drained this agrees with bytesCarried;
     *  mid-flight they differ by what is in transit. */
    std::uint64_t bytesEjected = 0;
    /** Cycles an output port wanted to send but the ejection side was
     *  full (direct measure of ejection back-pressure). */
    std::uint64_t ejectBlockedCycles = 0;
};

class CrossbarNetwork
{
  public:
    explicit CrossbarNetwork(const NetworkParams &params);

    const NetworkParams &params() const { return cfg; }
    const NetworkCounters &counters() const { return ctr; }

    /** Register this network's counters as a child group @p name of
     *  @p parent. Call once, after construction. */
    void registerStats(stats::Group &parent, const std::string &name);

    /** Can source @p src enqueue another packet this cycle? */
    bool canAccept(std::uint32_t src) const;

    /**
     * Enqueue @p mf at source @p src bound for @p dst, occupying
     * @p bytes on the wire (flit count is ceil(bytes / flitBytes)).
     */
    void inject(std::uint32_t src, std::uint32_t dst, MemFetch *mf,
                std::uint32_t bytes, double now_ps);

    /** Advance one interconnect cycle. */
    void tick();

    /** @name Ejection side (owner pops delivered packets) */
    /**@{*/
    bool ejectReady(std::uint32_t dst) const;
    MemFetch *ejectPeek(std::uint32_t dst);
    MemFetch *ejectPop(std::uint32_t dst);
    /**@}*/

    /** @name Port-state bitmasks (kept where the queues change)
     *  Bit d of ejectReadyMask() equals ejectReady(d); bit s of
     *  injectFullMask() equals !canAccept(s). Lets an owner find every
     *  port with work in a few word operations instead of a scan. */
    /**@{*/
    std::uint64_t ejectReadyMask() const { return ejReadyMask; }
    std::uint64_t injectFullMask() const { return injFullMask; }
    /**@}*/

    /** Total packets resident anywhere in this network (for drains). */
    std::size_t packetsInFlight() const;

    /** Network cycles ticked (bytes/cycle denominators). */
    std::uint64_t cyclesTicked() const { return cycle; }

    std::size_t injQueueSize(std::uint32_t src) const;

    /** Sample all injection-queue occupancies into @p hist. */
    void sampleInjOccupancy(stats::OccupancyHist &hist) const;

  private:
    struct Packet
    {
        MemFetch *mf = nullptr;
        std::uint32_t dst = 0;
        std::uint32_t flitsLeft = 0;
        std::uint32_t bytes = 0; ///< payload size, counted at ejection
    };

    NetworkParams cfg;
    NetworkCounters ctr;
    Cycle cycle = 0;

    std::vector<BoundedQueue<Packet>> injQ;  ///< per source
    std::vector<DelayPipe<Packet>> transit;  ///< per destination
    std::vector<BoundedQueue<Packet>> ejQ;   ///< per destination
    /** Ejection slots promised to packets in transit, per destination. */
    std::vector<std::uint32_t> reservedEj;
    /** Round-robin arbitration pointer per destination. */
    std::vector<std::uint32_t> rrPtr;
    /** Source currently granted to each destination (-1 if none). */
    std::vector<int> grant;

    /**
     * @name Arbitration bitsets (congested-path fast paths)
     *
     * The per-cycle work is driven by head packets only, so the tick
     * loop never has to visit idle ports: wantMask[d] holds the
     * sources whose head packet targets d (updated when a head
     * appears or is consumed), wantedDests/grantMask cover the
     * destinations with any arbitration or transfer to do, and
     * transitMask the destinations with an occupied transit pipe.
     * Iterating set bits in ascending order reproduces exactly the
     * original 0..N-1 port scan.
     */
    /**@{*/
    std::vector<std::uint64_t> wantMask; ///< per dest, over sources
    std::uint64_t wantedDests = 0;
    std::uint64_t grantMask = 0;
    std::uint64_t transitMask = 0;
    std::uint64_t ejReadyMask = 0; ///< dests with a non-empty ejQ
    std::uint64_t injFullMask = 0; ///< sources with a full injQ
    void headArrived(std::uint32_t src);
    void headConsumed(std::uint32_t src, std::uint32_t dst);
    /**@}*/
};

/** The two networks bundled, with the id plumbing the GPU needs. */
class Interconnect
{
  public:
    Interconnect(const NetworkParams &req, const NetworkParams &reply)
        : reqNet(req), replyNet(reply)
    {}

    CrossbarNetwork &request() { return reqNet; }
    CrossbarNetwork &reply() { return replyNet; }
    const CrossbarNetwork &request() const { return reqNet; }
    const CrossbarNetwork &reply() const { return replyNet; }

    /** Register both networks as "icnt" (children "req" / "reply"). */
    void
    registerStats(stats::Group &parent)
    {
        stats::Group &g = parent.createChild("icnt");
        reqNet.registerStats(g, "req");
        replyNet.registerStats(g, "reply");
    }

    void
    tick()
    {
        reqNet.tick();
        replyNet.tick();
    }

    std::size_t
    packetsInFlight() const
    {
        return reqNet.packetsInFlight() + replyNet.packetsInFlight();
    }

  private:
    CrossbarNetwork reqNet;
    CrossbarNetwork replyNet;
};

} // namespace bwsim

#endif // BWSIM_ICNT_CROSSBAR_HH
