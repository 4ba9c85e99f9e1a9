#include "cache/tag_array.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace bwsim
{

TagArray::TagArray(std::uint64_t size_bytes, std::uint32_t line_bytes,
                   std::uint32_t assoc, std::uint32_t index_divisor)
    : ways(assoc), line(line_bytes), indexDivisor(index_divisor),
      lineShift(floorLog2(line_bytes))
{
    bwsim_assert(isPowerOf2(line_bytes), "line size %u not a power of two",
                 line_bytes);
    bwsim_assert(assoc > 0, "associativity must be positive");
    bwsim_assert(index_divisor > 0, "index divisor must be positive");
    bwsim_assert(size_bytes % (std::uint64_t(line_bytes) * assoc) == 0,
                 "capacity %llu not divisible by line*assoc",
                 static_cast<unsigned long long>(size_bytes));
    sets = static_cast<std::uint32_t>(
        size_bytes / (std::uint64_t(line_bytes) * assoc));
    bwsim_assert(sets > 0, "cache must have at least one set");
    setsPow2 = isPowerOf2(sets);
    linesVec.resize(std::size_t(sets) * ways);
}

std::uint32_t
TagArray::setIndex(Addr addr) const
{
    // Every probe, hit, reserve and fill lands here: divide only when
    // the geometry needs it (a banked L2's divisor, a set count that
    // is not a power of two).
    Addr idx = addr >> lineShift;
    if (indexDivisor != 1)
        idx /= indexDivisor;
    return static_cast<std::uint32_t>(setsPow2 ? idx & (sets - 1)
                                               : idx % sets);
}

Addr
TagArray::lineTag(Addr addr) const
{
    return addr >> lineShift;
}

TagArray::Line *
TagArray::findLine(Addr addr)
{
    Addr tag = lineTag(addr);
    Line *base = &linesVec[std::size_t(setIndex(addr)) * ways];
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (base[w].state != LineState::Invalid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const TagArray::Line *
TagArray::findLine(Addr addr) const
{
    return const_cast<TagArray *>(this)->findLine(addr);
}

ProbeOutcome
TagArray::probe(Addr addr) const
{
    ProbeOutcome out;
    const Line *base = &linesVec[std::size_t(setIndex(addr)) * ways];
    Addr tag = lineTag(addr);

    // Pass 1: look for the line itself.
    for (std::uint32_t w = 0; w < ways; ++w) {
        const Line &l = base[w];
        if (l.state == LineState::Invalid || l.tag != tag)
            continue;
        out.way = w;
        out.result = (l.state == LineState::Reserved)
                         ? ProbeResult::HitReserved
                         : ProbeResult::Hit;
        return out;
    }

    // Pass 2: choose a victim: any Invalid way, else LRU non-Reserved.
    int victim = -1;
    bool victim_vacant = false;
    Cycle oldest = ~Cycle(0);
    for (std::uint32_t w = 0; w < ways; ++w) {
        const Line &l = base[w];
        if (l.state == LineState::Invalid) {
            victim = static_cast<int>(w);
            victim_vacant = true;
            break;
        }
        if (l.state == LineState::Reserved)
            continue; // pending fill: not replaceable
        if (l.lastUse < oldest) {
            oldest = l.lastUse;
            victim = static_cast<int>(w);
        }
    }

    if (victim < 0) {
        out.result = ProbeResult::MissNoLine;
        return out;
    }
    out.way = static_cast<std::uint32_t>(victim);
    if (victim_vacant) {
        out.result = ProbeResult::MissVacant;
    } else {
        const Line &v = base[victim];
        out.result = ProbeResult::MissEvict;
        out.victimAddr = v.tag << lineShift;
        out.victimDirty = (v.state == LineState::Modified);
    }
    return out;
}

void
TagArray::accessHit(Addr addr, std::uint32_t way, Cycle now, bool make_dirty)
{
    Line &l = linesVec[std::size_t(setIndex(addr)) * ways + way];
    bwsim_assert(l.tag == lineTag(addr) &&
                     (l.state == LineState::Valid ||
                      l.state == LineState::Modified),
                 "accessHit on non-resident line 0x%llx",
                 static_cast<unsigned long long>(addr));
    l.lastUse = now;
    if (make_dirty)
        l.state = LineState::Modified;
}

void
TagArray::reserve(Addr addr, std::uint32_t way, Cycle now)
{
    Line &l = linesVec[std::size_t(setIndex(addr)) * ways + way];
    bwsim_assert(l.state != LineState::Reserved,
                 "reserving an already-reserved way");
    l.tag = lineTag(addr);
    l.state = LineState::Reserved;
    l.lastUse = now;
}

void
TagArray::fill(Addr addr, Cycle now, bool make_dirty)
{
    Line *l = findLine(addr);
    bwsim_assert(l && l->state == LineState::Reserved,
                 "fill for line 0x%llx that is not reserved",
                 static_cast<unsigned long long>(addr));
    l->state = make_dirty ? LineState::Modified : LineState::Valid;
    l->lastUse = now;
}

void
TagArray::invalidate(Addr addr)
{
    Line *l = findLine(addr);
    if (l && l->state != LineState::Reserved)
        l->state = LineState::Invalid;
}

std::uint32_t
TagArray::reservedLines() const
{
    std::uint32_t n = 0;
    for (const auto &l : linesVec)
        if (l.state == LineState::Reserved)
            ++n;
    return n;
}

bool
TagArray::isValid(Addr addr) const
{
    const Line *l = findLine(addr);
    return l && (l->state == LineState::Valid ||
                 l->state == LineState::Modified);
}

} // namespace bwsim
