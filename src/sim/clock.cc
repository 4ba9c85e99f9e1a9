#include "sim/clock.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace bwsim
{

ClockDomain::ClockDomain(std::string name, double freq_mhz,
                         std::function<void()> tick_fn)
    : domainName(std::move(name)), period(1e6 / freq_mhz),
      fn(std::move(tick_fn))
{
    bwsim_assert(freq_mhz > 0.0, "domain '%s' needs a positive frequency",
                 domainName.c_str());
}

void
ClockDomain::tick()
{
    fn();
    ++cycles;
    next += period;
}

std::size_t
MultiClock::addDomain(std::string name, double freq_mhz,
                      std::function<void()> tick_fn)
{
    domains.emplace_back(std::move(name), freq_mhz, std::move(tick_fn));
    return domains.size() - 1;
}

void
MultiClock::step()
{
    bwsim_assert(!domains.empty(), "MultiClock has no domains");

    double earliest = std::numeric_limits<double>::max();
    for (const auto &d : domains)
        earliest = std::min(earliest, d.nextEdge());

    // Publish the new time before ticking so callbacks that consult
    // nowPs() observe the instant they execute at.
    now = earliest;

    // Tolerate floating-point drift between nominally coincident edges
    // (e.g. 700 MHz being exactly half of 1400 MHz).
    const double epsilon = 1e-6;
    for (auto &d : domains) {
        if (d.nextEdge() <= earliest + epsilon) {
            d.tick();
            ++ticked;
        }
    }
}

} // namespace bwsim
