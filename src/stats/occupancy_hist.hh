/**
 * @file
 * Usage-lifetime occupancy histogram, the instrument behind the paper's
 * Fig. 4 (L2 access queue) and Fig. 5 (DRAM access queue).
 *
 * Each cycle in which the monitored queue holds at least one request is
 * part of the queue's "usage lifetime" and is classified by relative
 * occupancy into one of five buckets: (0-25%), [25-50%), [50-75%),
 * [75-100%) and exactly-full (100%). Empty cycles are ignored, matching
 * the paper's definition.
 */

#ifndef BWSIM_STATS_OCCUPANCY_HIST_HH
#define BWSIM_STATS_OCCUPANCY_HIST_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/log.hh"

namespace bwsim::stats
{

class Group;

/** The five occupancy bands of the paper's stacked-bar figures. */
enum class OccBand : unsigned
{
    UnderQuarter = 0, ///< (0-25%)
    UnderHalf,        ///< [25-50%)
    UnderThreeQ,      ///< [50-75%)
    UnderFull,        ///< [75-100%)
    Full,             ///< 100%
    NumBands
};

constexpr unsigned numOccBands =
    static_cast<unsigned>(OccBand::NumBands);

/** Human-readable labels, in band order, matching the paper's legend. */
const char *occBandLabel(OccBand band);

class OccupancyHist
{
  public:
    OccupancyHist() = default;

    /** Record one cycle at @p occupancy out of @p capacity entries. */
    void
    sample(std::size_t occupancy, std::size_t capacity)
    {
        sample(occupancy, capacity, 1);
    }

    /**
     * Record @p cycles consecutive cycles at a frozen @p occupancy
     * (the bulk charge for a sleeping L2 bank or DRAM channel: its
     * queue cannot change while it sleeps).
     */
    void
    sample(std::size_t occupancy, std::size_t capacity,
           std::uint64_t cycles)
    {
        bwsim_assert(occupancy <= capacity, "occupancy %zu > capacity %zu",
                     occupancy, capacity);
        if (occupancy == 0 || capacity == 0)
            return;
        counts[static_cast<unsigned>(classify(occupancy, capacity))] +=
            cycles;
        lifetime += cycles;
    }

    /** Map an occupancy to its band. Requires 0 < occ <= cap. */
    static OccBand
    classify(std::size_t occ, std::size_t cap)
    {
        if (occ == cap)
            return OccBand::Full;
        double frac = static_cast<double>(occ) / static_cast<double>(cap);
        if (frac < 0.25)
            return OccBand::UnderQuarter;
        if (frac < 0.50)
            return OccBand::UnderHalf;
        if (frac < 0.75)
            return OccBand::UnderThreeQ;
        return OccBand::UnderFull;
    }

    /** Cycles spent in @p band as a fraction of the usage lifetime. */
    double
    fraction(OccBand band) const
    {
        if (lifetime == 0)
            return 0.0;
        return static_cast<double>(counts[static_cast<unsigned>(band)]) /
               static_cast<double>(lifetime);
    }

    /** Total non-empty cycles observed. */
    std::uint64_t usageLifetime() const { return lifetime; }

    void
    reset()
    {
        counts.fill(0);
        lifetime = 0;
    }

    /**
     * Register this histogram in @p parent as a BoundVector @p name
     * (per-band cycle counts, labelled per the paper's legend) plus a
     * "<name>_lifetime" scalar (total non-empty cycles).
     */
    void registerStats(Group &parent, const std::string &name,
                       const std::string &desc);

    /** Merge another histogram into this one (for multi-queue averages). */
    void
    merge(const OccupancyHist &other)
    {
        for (unsigned i = 0; i < numOccBands; ++i)
            counts[i] += other.counts[i];
        lifetime += other.lifetime;
    }

  private:
    std::array<std::uint64_t, numOccBands> counts{};
    std::uint64_t lifetime = 0;
};

} // namespace bwsim::stats

#endif // BWSIM_STATS_OCCUPANCY_HIST_HH
