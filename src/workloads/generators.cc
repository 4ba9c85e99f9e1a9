#include "workloads/generators.hh"

#include "common/log.hh"
#include "workloads/trace_gen.hh"

namespace bwsim
{

namespace
{

/** Largest power of two <= v (v >= 1). */
std::uint64_t
floorPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

} // anonymous namespace

PointerChaseCursor::PointerChaseCursor(const GeneratorParams &gen,
                                       std::uint32_t line_bytes)
    : line(line_bytes), insts(gen.insts)
{
    bwsim_assert(gen.insts > 0, "pointer chase needs insts > 0");
    numLines = floorPow2(std::max<std::uint64_t>(
        1, gen.regionBytes / line_bytes));
}

bool
PointerChaseCursor::next(WarpInstData &out)
{
    if (done())
        return false;
    out.reset();
    out.op = Op::Load;
    // Read the register the previous load wrote: the chain admits
    // exactly one outstanding access, so AML is a pure round trip.
    out.dest = 1;
    out.src = instIdx == 0 ? -1 : 1;
    out.pc = nextPc();
    out.lineAddrs.push_back(wl_layout::hotBase + idx * line);
    // Full-period LCG over [0, numLines): a*x+c with a % 4 == 1 and
    // odd c visits every line before repeating.
    idx = (idx * 5 + 1) & (numLines - 1);
    ++instIdx;
    return true;
}

Addr
PointerChaseCursor::nextPc() const
{
    return wl_layout::codeBase +
           (static_cast<Addr>(instIdx) % 64) * wl_layout::instBytes;
}

StrideCursor::StrideCursor(const GeneratorParams &gen,
                           std::uint64_t global_warp,
                           std::uint32_t line_bytes)
    : regionBytes(std::max<std::uint64_t>(gen.regionBytes, line_bytes)),
      strideBytes(std::max<std::uint64_t>(gen.strideBytes, 1)),
      globalWarp(global_warp), line(line_bytes), insts(gen.insts)
{
    bwsim_assert(gen.insts > 0, "stride sweep needs insts > 0");
}

bool
StrideCursor::next(WarpInstData &out)
{
    if (done())
        return false;
    out.reset();
    out.op = Op::Load;
    // Independent loads (no source register): maximal memory-level
    // parallelism, so the probe measures bandwidth, not latency.
    out.dest = 1 + instIdx % (numModelRegs - 1);
    out.src = -1;
    out.pc = nextPc();
    const std::uint64_t offset =
        (globalWarp * wl_layout::streamChunk +
         static_cast<std::uint64_t>(instIdx) * strideBytes) %
        regionBytes;
    out.lineAddrs.push_back((wl_layout::streamBase + offset) &
                            ~static_cast<Addr>(line - 1));
    ++instIdx;
    return true;
}

Addr
StrideCursor::nextPc() const
{
    return wl_layout::codeBase +
           (static_cast<Addr>(instIdx) % 64) * wl_layout::instBytes;
}

} // namespace bwsim
