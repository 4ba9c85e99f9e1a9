/**
 * @file
 * Per-warp scoreboard tracking pending register writes.
 *
 * A warp instruction cannot issue while its source (RAW) or
 * destination (WAW) register has a pending write. The scoreboard also
 * remembers *what kind* of operation owns each pending write so issue
 * stalls can be attributed to data-MEM vs. data-ALU (Fig. 7).
 */

#ifndef BWSIM_SMCORE_SCOREBOARD_HH
#define BWSIM_SMCORE_SCOREBOARD_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace bwsim
{

/** What a blocked instruction is waiting on. */
enum class PendingKind : std::uint8_t
{
    None = 0,
    Mem, ///< outstanding load
    Alu, ///< in-flight ALU/SFU op
};

class Scoreboard
{
  public:
    explicit Scoreboard(int num_warps)
        : regs(num_warps), pendingCount(num_warps, 0)
    {
        bwsim_assert(num_warps > 0, "scoreboard needs at least one warp");
    }

    /**
     * Can an instruction reading @p src and writing @p dest issue for
     * @p warp? If not, @p blocked_on reports whether a memory or an
     * ALU dependency blocks it (memory wins if both are present,
     * matching the paper's attribution).
     */
    bool
    canIssueRegs(int warp, int src, int dest,
                 PendingKind &blocked_on) const
    {
        blocked_on = PendingKind::None;
        const auto &r = regs[warp];
        check(r, src, blocked_on);
        check(r, dest, blocked_on);
        return blocked_on == PendingKind::None;
    }

    /** Record a pending write of @p reg by @p kind. */
    void
    setPending(int warp, int reg, PendingKind kind)
    {
        if (reg < 0)
            return;
        bwsim_assert(reg < numModelRegs, "register %d out of range", reg);
        bwsim_assert(kind != PendingKind::None, "pending write needs a kind");
        auto &slot = regs[warp][reg];
        bwsim_assert(slot == PendingKind::None,
                     "issue with WAW hazard outstanding on r%d", reg);
        slot = kind;
        ++pendingCount[warp];
    }

    /** Clear the pending write of @p reg (write-back / fill). */
    void
    clear(int warp, int reg)
    {
        if (reg < 0)
            return;
        auto &slot = regs[warp][reg];
        bwsim_assert(slot != PendingKind::None,
                     "clearing r%d which is not pending", reg);
        slot = PendingKind::None;
        bwsim_assert(pendingCount[warp] > 0, "pending count underflow");
        --pendingCount[warp];
    }

    /** Any pending writes for @p warp? */
    bool anyPending(int warp) const { return pendingCount[warp] > 0; }

  private:
    static void
    check(const std::array<PendingKind, numModelRegs> &r, int reg,
          PendingKind &blocked_on)
    {
        if (reg < 0)
            return;
        PendingKind k = r[reg];
        if (k == PendingKind::None)
            return;
        if (k == PendingKind::Mem || blocked_on == PendingKind::None)
            blocked_on = k;
    }

    std::vector<std::array<PendingKind, numModelRegs>> regs;
    std::vector<std::uint32_t> pendingCount;
};

} // namespace bwsim

#endif // BWSIM_SMCORE_SCOREBOARD_HH
