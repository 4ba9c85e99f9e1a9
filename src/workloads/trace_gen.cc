#include "workloads/trace_gen.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace bwsim
{

using namespace wl_layout;

SyntheticCursor::SyntheticCursor(const BenchmarkProfile &profile,
                                 int core_id, std::uint64_t cta_seq,
                                 int warp_in_cta, std::uint32_t line_bytes)
    : prof(profile), coreId(core_id), ctaSeq(cta_seq),
      warpInCta(warp_in_cta),
      globalWarpId(cta_seq * std::uint64_t(profile.warpsPerCta) +
                   std::uint64_t(warp_in_cta)),
      line(line_bytes),
      rng(Rng::mixSeed(profile.seed, globalWarpId * 1315423911ull + 7))
{
    bwsim_assert(line > 0 && isPowerOf2(line), "bad line size %u", line);
    // All warps that land on the same core start at the same phase
    // within the core's tile, so the core's live footprint in the L2
    // is one reuse window, not the whole tile. Congestion (or more
    // outstanding misses) stretches the interleaving between reuses
    // and can defeat this locality -- the paper's mm/ii behaviour.
    std::uint64_t tile_lines = prof.tileBytes / line;
    if (tile_lines)
        tileWindowStart = (std::uint64_t(core_id) * 29) % tile_lines;
}

Addr
SyntheticCursor::nextPc() const
{
    return codeBase + Addr(instIdx % prof.loopInsts) * instBytes;
}

Addr
SyntheticCursor::genHot()
{
    std::uint64_t lines = std::max<std::uint64_t>(1, prof.hotBytes / line);
    Addr base = hotBase + Addr(coreId) * hotStride;
    return base + rng.below(lines) * line;
}

Addr
SyntheticCursor::genTile()
{
    std::uint64_t tile_lines =
        std::max<std::uint64_t>(1, prof.tileBytes / line);
    std::uint64_t window_lines =
        std::max<std::uint64_t>(1, prof.tileWindowBytes / line);
    window_lines = std::min(window_lines, tile_lines);
    std::uint64_t idx =
        (tileWindowStart + rng.below(window_lines)) % tile_lines;
    Addr base = tileBase + Addr(coreId) * tileStride;
    return base + idx * line;
}

Addr
SyntheticCursor::genShared()
{
    std::uint64_t lines =
        std::max<std::uint64_t>(1, prof.sharedBytes / line);
    return sharedBase + rng.below(lines) * line;
}

Addr
SyntheticCursor::genRandom()
{
    std::uint64_t lines =
        std::max<std::uint64_t>(1, prof.randomBytes / line);
    return randomBase + rng.below(lines) * line;
}

Addr
SyntheticCursor::genStream(std::uint32_t burst_idx)
{
    // Coalesced streaming: all warps of a CTA share a chunk, with warp
    // j owning lines j, j+W, j+2W, ... (W = warps per CTA). Warps that
    // progress together therefore cover consecutive lines -- the
    // DRAM-row-friendly access pattern of real coalesced kernels.
    std::uint64_t w = std::uint64_t(prof.warpsPerCta);
    Addr base = streamBase + (ctaSeq % 16384) * streamChunk;
    std::uint64_t idx = std::uint64_t(warpInCta) +
                        (streamPos + burst_idx) * w;
    return base + idx * line;
}

bool
SyntheticCursor::next(WarpInstData &out)
{
    if (done())
        return false;

    out.reset();
    out.pc = nextPc();

    // Dependency chain: instruction i reads the register written by
    // instruction i - ilpDistance, giving `ilpDistance` independent
    // instructions in flight per warp.
    int window = prof.ilpDistance + 2;
    bwsim_assert(window + 2 < numModelRegs, "ILP window too large");
    out.dest = 2 + (instIdx % window);
    out.src = (instIdx >= prof.ilpDistance)
                  ? 2 + ((instIdx - prof.ilpDistance) % window)
                  : -1;

    bool is_mem = rng.chance(prof.memFraction);
    if (is_mem) {
        ++memInstCount;
        bool is_store = rng.chance(prof.storeFraction);
        out.op = is_store ? Op::Store : Op::Load;
        out.storeBytes = prof.storeBytes;
        if (is_store)
            out.dest = -1; // stores write no register

        int span = prof.maxAccessesPerInst - prof.minAccessesPerInst;
        std::uint32_t n_acc = static_cast<std::uint32_t>(
            prof.minAccessesPerInst +
            (span > 0 ? int(rng.below(std::uint64_t(span) + 1)) : 0));
        n_acc = std::max<std::uint32_t>(1, n_acc);

        double r = rng.uniform();
        out.lineAddrs.reserve(n_acc);
        if (r < prof.pHot) {
            Addr a = genHot();
            for (std::uint32_t k = 0; k < n_acc; ++k)
                out.lineAddrs.push_back(a + k * line);
        } else if (r < prof.pHot + prof.pTile) {
            for (std::uint32_t k = 0; k < n_acc; ++k)
                out.lineAddrs.push_back(genTile());
            if (prof.tileWindowAdvance > 0 &&
                memInstCount % prof.tileWindowAdvance == 0) {
                std::uint64_t tile_lines =
                    std::max<std::uint64_t>(1, prof.tileBytes / line);
                std::uint64_t window_lines = std::max<std::uint64_t>(
                    1, prof.tileWindowBytes / line);
                tileWindowStart =
                    (tileWindowStart + window_lines / 2) % tile_lines;
            }
        } else if (r < prof.pHot + prof.pTile + prof.pShared) {
            Addr a = genShared();
            for (std::uint32_t k = 0; k < n_acc; ++k)
                out.lineAddrs.push_back(a + k * line);
        } else if (r < prof.pHot + prof.pTile + prof.pShared +
                           prof.pRandom) {
            for (std::uint32_t k = 0; k < n_acc; ++k)
                out.lineAddrs.push_back(genRandom());
        } else {
            for (std::uint32_t k = 0; k < n_acc; ++k)
                out.lineAddrs.push_back(genStream(k));
            streamPos += n_acc;
        }
    } else {
        bool is_sfu = rng.chance(prof.sfuFraction);
        out.op = is_sfu ? Op::Sfu : Op::Alu;
        out.latency = is_sfu ? prof.sfuLatency : prof.aluLatency;
    }

    ++instIdx;
    return true;
}

std::unique_ptr<TraceCursor>
makeSyntheticCursor(const BenchmarkProfile &prof, int core_id,
                    std::uint64_t cta_seq, int warp_in_cta,
                    std::uint32_t line_bytes)
{
    return std::make_unique<SyntheticCursor>(prof, core_id, cta_seq,
                                             warp_in_cta, line_bytes);
}

} // namespace bwsim
