/**
 * @file
 * Design-space-exploration basics: RunSpec, the one simulation every
 * ExecutionBackend (core/backend.hh) batches; runOne(), which runs a
 * single spec to completion; and the helpers every figure needs
 * (shrunk workloads, averages).
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
 * Scale a profile down for quick runs (factor >= 1 divides the CTA
 * count and per-warp instruction count; both clamp to at least 1).
 */
BenchmarkProfile shrinkProfile(const BenchmarkProfile &profile,
                               int factor);

/** Arithmetic mean, the paper's "AVG" column convention. */
double averageOf(const std::vector<double> &xs);

} // namespace bwsim

#endif // BWSIM_CORE_DSE_HH
