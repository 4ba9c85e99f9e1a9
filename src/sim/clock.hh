/**
 * @file
 * Multi-rate clocking in the GPGPU-Sim style.
 *
 * The GPU has several clock domains (core 1.4 GHz, crossbar/L2 700 MHz,
 * DRAM command clock 924 MHz in the baseline). A MultiClock advances
 * simulated time to the earliest pending domain edge and ticks every
 * domain whose edge falls on that instant, in registration order.
 * Registration order therefore fixes the intra-instant ordering; bwsim
 * registers drains before producers (DRAM, then L2/crossbar, then
 * cores) so requests never teleport through two levels in one instant.
 *
 * Both scheduler modes advance the clock the same way; what the skip
 * scheduler adds is per-component sleep *inside* the tick callbacks
 * (see Gpu and MemoryPartition), never a skipped edge here.
 */

#ifndef BWSIM_SIM_CLOCK_HH
#define BWSIM_SIM_CLOCK_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bwsim
{

/** Horizon sentinel: idle until external work arrives. */
constexpr std::uint64_t kInfiniteHorizon = ~std::uint64_t(0);

/** One clock domain: a frequency, a cycle counter and a tick callback. */
class ClockDomain
{
  public:
    ClockDomain(std::string name, double freq_mhz,
                std::function<void()> tick_fn);

    const std::string &name() const { return domainName; }
    /** Cycles completed so far. */
    Cycle cycle() const { return cycles; }
    /** Absolute time (ps) of the next edge. */
    double nextEdge() const { return next; }

    /** Run one cycle and schedule the next edge. */
    void tick();

  private:
    std::string domainName;
    /** Domain period in picoseconds (not necessarily integral). */
    double period;
    double next = 0.0;
    Cycle cycles = 0;
    std::function<void()> fn;
};

/**
 * A set of clock domains advanced in time order. Domains are ticked
 * lazily: step() advances to the next instant with at least one edge.
 */
class MultiClock
{
  public:
    /** Register a domain; returns its index. Order = intra-instant order. */
    std::size_t addDomain(std::string name, double freq_mhz,
                          std::function<void()> tick_fn);

    ClockDomain &domain(std::size_t idx) { return domains.at(idx); }
    const ClockDomain &domain(std::size_t idx) const
    {
        return domains.at(idx);
    }

    /** Current simulated time in picoseconds. */
    double nowPs() const { return now; }

    /** Advance to the next edge instant, ticking all due domains. */
    void step();

    /** Domain edges ticked so far. */
    std::uint64_t tickedEdges() const { return ticked; }

  private:
    std::vector<ClockDomain> domains;
    double now = 0.0;
    std::uint64_t ticked = 0;
};

} // namespace bwsim

#endif // BWSIM_SIM_CLOCK_HH
