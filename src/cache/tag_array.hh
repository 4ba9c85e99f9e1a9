/**
 * @file
 * Set-associative tag array with LRU replacement and allocate-on-miss
 * line reservation, as in Fermi's caches (paper §IV-A2: "Since Fermi
 * employs an allocate-on-miss policy for reserving new cache lines, a
 * structural hazard can also be caused due to a lack of replaceable
 * cache lines in a set").
 *
 * Lines move through Invalid -> Reserved -> Valid (-> Modified) and a
 * set whose ways are all Reserved cannot accept a new miss: that is
 * the "cache" stall cause of Figs. 8 and 9.
 */

#ifndef BWSIM_CACHE_TAG_ARRAY_HH
#define BWSIM_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace bwsim
{

/** Lifecycle state of one cache line. */
enum class LineState : std::uint8_t
{
    Invalid,
    Reserved, ///< allocated on miss, fill pending
    Valid,
    Modified, ///< valid and dirty (write-back caches only)
};

/** Result of a non-mutating tag probe. */
enum class ProbeResult : std::uint8_t
{
    Hit,         ///< line Valid or Modified
    HitReserved, ///< line Reserved: miss in flight, merge candidate
    MissVacant,  ///< miss; an Invalid way is available
    MissEvict,   ///< miss; a Valid/Modified victim must be evicted
    MissNoLine,  ///< miss; every way is Reserved -> structural hazard
};

struct ProbeOutcome
{
    ProbeResult result;
    std::uint32_t way = 0;     ///< hit way, or chosen victim way
    Addr victimAddr = 0;       ///< for MissEvict: address being evicted
    bool victimDirty = false;  ///< for MissEvict: victim needs writeback
};

class TagArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param line_bytes line size (power of two)
     * @param assoc ways per set
     * @param index_divisor line-index divisor applied before the set
     *        modulo. A bank of an N-bank line-interleaved cache only
     *        ever sees every N-th line, so it must index sets on the
     *        bank-local line index (divisor = N) or alias into a
     *        fraction of its sets.
     */
    TagArray(std::uint64_t size_bytes, std::uint32_t line_bytes,
             std::uint32_t assoc, std::uint32_t index_divisor = 1);

    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return ways; }
    std::uint32_t lineSize() const { return line; }

    /** Probe without changing any state. */
    ProbeOutcome probe(Addr addr) const;

    /** Record a hit: update LRU and (optionally) mark dirty. */
    void accessHit(Addr addr, std::uint32_t way, Cycle now, bool make_dirty);

    /**
     * Reserve @p way in @p addr's set for an incoming fill, evicting
     * whatever the probe chose. The caller is responsible for emitting
     * a writeback if the probe reported a dirty victim.
     */
    void reserve(Addr addr, std::uint32_t way, Cycle now);

    /** Complete a pending fill: Reserved -> Valid/Modified. */
    void fill(Addr addr, Cycle now, bool make_dirty);

    /** Invalidate a line if present (write-evict L1 stores). */
    void invalidate(Addr addr);

    /** Number of lines currently in Reserved state (for tests). */
    std::uint32_t reservedLines() const;

    /** True if @p addr is present in Valid/Modified state. */
    bool isValid(Addr addr) const;

  private:
    struct Line
    {
        Addr tag = 0;
        LineState state = LineState::Invalid;
        Cycle lastUse = 0;
    };

    std::uint32_t setIndex(Addr addr) const;
    Addr lineTag(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t line;
    std::uint32_t indexDivisor;
    bool setsPow2; ///< index sets by mask, not modulo
    unsigned lineShift;
    std::vector<Line> linesVec; ///< sets * ways, row-major by set
};

} // namespace bwsim

#endif // BWSIM_CACHE_TAG_ARRAY_HH
