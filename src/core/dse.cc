#include "core/dse.hh"

#include <algorithm>

#include "common/log.hh"
#include "gpu/gpu.hh"

namespace bwsim
{

SimResult
runOne(const WorkloadSpec &workload, const GpuConfig &config)
{
    Gpu gpu(config, workload);
    return gpu.run();
}

BenchmarkProfile
shrinkProfile(const BenchmarkProfile &profile, int factor)
{
    bwsim_assert(factor >= 1, "shrink factor must be >= 1");
    BenchmarkProfile p = profile;
    // Floors: keep at least one resident wave of CTAs and a meaningful
    // warp length (40, unless the profile was already shorter) -- but
    // never less than 1 of either and never more than the original
    // profile, so a factor larger than the CTA or instruction count
    // clamps instead of producing a zero-work (or inflated) profile.
    p.numCtas = std::max({1, std::min(p.numCtas, p.maxCtasPerCore),
                          p.numCtas / factor});
    p.instsPerWarp = std::max({1, std::min(p.instsPerWarp, 40),
                               p.instsPerWarp / factor});
    return p;
}

double
averageOf(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

} // namespace bwsim
