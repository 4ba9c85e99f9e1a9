/**
 * @file
 * The minimal "ISA" contract between the SIMT core model and the
 * workload generators.
 *
 * bwsim does not interpret real instructions; a warp executes a stream
 * of abstract operations (ALU, SFU, load, store) with register
 * dependencies and pre-coalesced line addresses. The stream is
 * produced lazily by a TraceCursor so no trace files ever exist.
 */

#ifndef BWSIM_SMCORE_ISA_HH
#define BWSIM_SMCORE_ISA_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace bwsim
{

/** Operation classes the core pipeline distinguishes. */
enum class Op : std::uint8_t
{
    Alu,   ///< integer/FP pipeline
    Sfu,   ///< special-function (long latency, narrow issue)
    Load,  ///< global load through L1D
    Store, ///< global store through the write-evict L1D
};

/** Number of architectural registers the dependency model uses. */
constexpr int numModelRegs = 64;

/** One decoded warp instruction. */
struct WarpInstData
{
    Op op = Op::Alu;
    /** Destination register or -1 (stores, some ALU ops). */
    int dest = -1;
    /** Source register or -1. One source suffices for RAW modelling. */
    int src = -1;
    /** Execution latency in core cycles (ALU/SFU). */
    std::uint32_t latency = 4;
    /** Program counter, for I-cache behaviour. */
    Addr pc = 0;
    /** Coalesced line addresses this warp instruction touches. */
    std::vector<Addr> lineAddrs;
    /** Bytes of data per line access for stores. */
    std::uint32_t storeBytes = 32;

    bool isMem() const { return op == Op::Load || op == Op::Store; }

    /** Back to the defaults, keeping lineAddrs' capacity (assigning a
     *  fresh WarpInstData would free it). */
    void
    reset()
    {
        WarpInstData fresh;
        lineAddrs.clear();
        fresh.lineAddrs.swap(lineAddrs);
        *this = std::move(fresh);
    }
};

/**
 * Lazily generated instruction stream of one warp. next() pops the
 * next instruction; nextPc() exposes the PC the fetch stage must hit
 * in the I-cache before next() may be called.
 */
class TraceCursor
{
  public:
    virtual ~TraceCursor() = default;

    /**
     * Produce the next instruction into @p out, overwriting every
     * field (the core refills its I-buffer slots in place); false
     * when the warp has exited.
     */
    virtual bool next(WarpInstData &out) = 0;

    /** PC of the next instruction (valid until the stream ends). */
    virtual Addr nextPc() const = 0;

    /** True when the stream has no more instructions. */
    virtual bool done() const = 0;
};

} // namespace bwsim

#endif // BWSIM_SMCORE_ISA_HH
