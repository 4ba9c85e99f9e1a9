/**
 * @file
 * BenchmarkProfile: the parameter set describing one synthetic
 * workload, our stand-in for the paper's 19 CUDA benchmarks
 * (Rodinia v3.0, Mars/MapReduce, Parboil -- Table II).
 *
 * A profile controls occupancy (CTAs, warps, residency), the
 * instruction mix, the dependency distance (latency tolerance, i.e.
 * where a benchmark sits on Fig. 3), coalescing divergence, and the
 * *locality structure* of its address streams:
 *
 *   hot    -- tiny per-core region, L1-resident after warmup
 *   tile   -- per-core working set larger than L1 but collectively
 *             around L2 capacity: intra-core L2 locality. Modelled as
 *             a sliding reuse window so congestion-driven interleaving
 *             can destroy the locality (the paper's mm/ii thrashing)
 *   shared -- one region read by all cores: inter-core L2 locality
 *   random -- uniform over a large region: L2-thrashing, row-hostile
 *   stream -- per-warp sequential: misses everywhere, row-friendly
 *
 * Each benchmark's parameters were chosen to reproduce its published
 * first-order behaviour (which memory level limits it, its P-inf /
 * P-DRAM class); tests/test_paper_shapes.cc asserts it, and each
 * `bwsim` figure prints the paper's averages beside its table.
 */

#ifndef BWSIM_WORKLOADS_PROFILE_HH
#define BWSIM_WORKLOADS_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace bwsim
{

struct BenchmarkProfile
{
    std::string name;   ///< abbreviation used in the paper's figures
    std::string suite;  ///< Rodinia / MapReduce / Parboil

    /** @name Shape and occupancy */
    /**@{*/
    int numCtas = 60;
    int warpsPerCta = 8;
    int maxCtasPerCore = 6;
    int instsPerWarp = 300;
    /**@}*/

    /** @name Instruction mix */
    /**@{*/
    double memFraction = 0.30;  ///< memory ops per instruction
    double storeFraction = 0.15; ///< of memory ops
    double sfuFraction = 0.02;  ///< of non-memory ops
    int ilpDistance = 3;        ///< consumer distance behind producer
    std::uint32_t aluLatency = 4;
    std::uint32_t sfuLatency = 16;
    /**@}*/

    /** @name Coalescing: distinct lines per warp memory instruction */
    /**@{*/
    int minAccessesPerInst = 1;
    int maxAccessesPerInst = 1;
    /**@}*/

    /** @name Address-stream mix (remainder after these is stream) */
    /**@{*/
    double pHot = 0.10;
    double pTile = 0.40;
    double pShared = 0.10;
    double pRandom = 0.05;
    /**@}*/

    /** @name Region geometry (bytes) */
    /**@{*/
    std::uint64_t hotBytes = 4 * 1024;
    std::uint64_t tileBytes = 56 * 1024;
    /** Reuse window within the tile; locality the L2 must capture. */
    std::uint64_t tileWindowBytes = 16 * 1024;
    /** Mem instructions between window advances (per warp). */
    int tileWindowAdvance = 48;
    std::uint64_t sharedBytes = 256 * 1024;
    std::uint64_t randomBytes = 64ull * 1024 * 1024;
    /**@}*/

    std::uint32_t storeBytes = 32;
    /** Kernel loop footprint in instructions (I-cache behaviour). */
    int loopInsts = 48;
    std::uint64_t seed = 1;

    /** Paper-reported reference values (Table II), for reports/tests. */
    double paperPinf = 0.0;
    double paperPdram = 0.0;

    /**
     * Stable serialization of every workload knob (SimCache keying).
     * Two profiles generate identical traces iff their keys match.
     */
    std::string cacheKey() const;
    /** "Simulates identically": compares cacheKey(), which excludes
     *  the report-only paperPinf/paperPdram reference values. */
    bool operator==(const BenchmarkProfile &o) const;
    bool operator!=(const BenchmarkProfile &o) const
    {
        return !(*this == o);
    }
};

/** The 19 memory-intensive benchmarks in Table II order. */
const std::vector<BenchmarkProfile> &benchmarkSuite();

/** Find a profile by its paper abbreviation; null when unknown. */
const BenchmarkProfile *findBenchmark(const std::string &name);

/** Small, fast profiles used by unit and integration tests. */
BenchmarkProfile makeTestProfile(const std::string &name);

} // namespace bwsim

#endif // BWSIM_WORKLOADS_PROFILE_HH
