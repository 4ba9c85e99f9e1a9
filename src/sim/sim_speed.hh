/**
 * @file
 * Process-global scheduler-mode selection and simulation-speed
 * telemetry.
 *
 * The scheduler mode (lockstep vs skip) is deliberately NOT a
 * GpuConfig knob: both modes produce bit-identical results, so the
 * mode must never enter cache keys or serialized results. It is a
 * process-global execution detail, selectable with --scheduler= or the
 * BWSIM_SCHEDULER environment variable (default: skip).
 *
 * The telemetry aggregates core-cycles simulated, wall time, ticked
 * clock edges and slept SM, L2-bank and DRAM-channel ticks across
 * every Gpu::run() in the process (worker threads included), powering
 * the --exec-stats report and the `bwsim perf` harness.
 */

#ifndef BWSIM_SIM_SIM_SPEED_HH
#define BWSIM_SIM_SIM_SPEED_HH

#include <cstdint>
#include <string>

namespace bwsim
{

/**
 * Whether components sleep: Lockstep ticks every SM, L2 bank and DRAM
 * channel on every edge of its clock; Skip lets each one sleep on its
 * own horizon and charges the slept cycles in bulk when it wakes.
 */
enum class SchedulerMode
{
    Lockstep,
    Skip,
};

/** Current process-wide mode (env BWSIM_SCHEDULER read once). */
SchedulerMode schedulerMode();

/** Override the mode (the CLI's --scheduler= flag). */
void setSchedulerMode(SchedulerMode mode);

const char *schedulerModeName(SchedulerMode mode);

/** Parse "lockstep"/"skip"; returns false on anything else. */
bool parseSchedulerMode(const std::string &text, SchedulerMode &out);

/** Totals across every Gpu::run() in this process. */
struct SimSpeedTotals
{
    std::uint64_t runs = 0;
    std::uint64_t coreCycles = 0;
    std::uint64_t tickedEdges = 0;
    /**
     * Always 0: both modes tick every clock edge, so no edge is
     * skipped and no span fused. Kept only because the sweep
     * benchmark (benchmark/bwsim_bench.cc) reads both fields.
     */
    std::uint64_t skippedEdges = 0;
    std::uint64_t fusedSpans = 0;
    /**
     * SM ticks replaced by bulk charges while that SM slept on its own
     * horizon (per-SM sleep, see Gpu).
     */
    std::uint64_t sleptCoreCycles = 0;
    /** L2-bank and DRAM-channel ticks replaced by bulk charges while
     *  that bank or channel slept on its own horizon (memory-side
     *  sleep, see MemSystem::setSleepEnabled). */
    std::uint64_t sleptL2Ticks = 0;
    std::uint64_t sleptDramTicks = 0;
    std::uint64_t wallNanos = 0;

    double
    cyclesPerSec() const
    {
        return wallNanos ? static_cast<double>(coreCycles) * 1e9 /
                               static_cast<double>(wallNanos)
                         : 0.0;
    }
};

/** Record one completed simulation (thread-safe). */
void recordSimSpeed(std::uint64_t core_cycles, std::uint64_t ticked_edges,
                    std::uint64_t slept_core_cycles,
                    std::uint64_t slept_l2_ticks,
                    std::uint64_t slept_dram_ticks,
                    std::uint64_t wall_nanos);

SimSpeedTotals simSpeedTotals();

} // namespace bwsim

#endif // BWSIM_SIM_SIM_SPEED_HH
