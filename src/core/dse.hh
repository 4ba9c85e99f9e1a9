/**
 * @file
 * Design-space-exploration runner: executes (benchmark, config) pairs,
 * in parallel across host threads, and provides the normalization
 * helpers (speedup over baseline, averages) every figure needs.
 */

#ifndef BWSIM_CORE_DSE_HH
#define BWSIM_CORE_DSE_HH

#include <string>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/sim_result.hh"
#include "workloads/workload_spec.hh"

namespace bwsim
{

/** One simulation to run. A bare BenchmarkProfile converts
 *  implicitly, so `{profile, config}` call sites read unchanged. */
struct RunSpec
{
    WorkloadSpec workload;
    GpuConfig config;
    /** SimCache::keyOf(workload, config) when the caller already
     *  built it (a batch builds each key half once); empty means
     *  SimCache::runAll() derives it. */
    std::string key{};
};

/** Run a single simulation to completion. */
SimResult runOne(const WorkloadSpec &workload, const GpuConfig &config);

/**
 * Run every spec, using up to @p threads host threads (0 = hardware
 * concurrency). Results are returned in spec order. Convenience
 * wrapper over ThreadedBackend (core/backend.hh).
 */
std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                              int threads = 0);

/**
 * Scale a profile down for quick runs (factor >= 1 divides the CTA
 * count and per-warp instruction count; both clamp to at least 1).
 */
BenchmarkProfile shrinkProfile(const BenchmarkProfile &profile,
                               int factor);

/** Arithmetic mean, the paper's "AVG" column convention. */
double averageOf(const std::vector<double> &xs);

} // namespace bwsim

#endif // BWSIM_CORE_DSE_HH
