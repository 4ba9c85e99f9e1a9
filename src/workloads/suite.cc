#include "workloads/profile.hh"

#include "common/key_builder.hh"
#include "common/log.hh"

namespace bwsim
{

namespace
{

constexpr std::uint64_t kKB = 1024;
constexpr std::uint64_t kMB = 1024 * 1024;

/**
 * The 19 memory-intensive benchmarks of Table II. The parameters are a
 * calibrated synthetic stand-in for the real CUDA binaries: each
 * profile is shaped so the benchmark bottlenecks in the same part of
 * the hierarchy as the paper reports (tests/test_paper_shapes.cc
 * asserts those shapes).
 *
 * Region semantics (uniform random draws within each region):
 *  - hot: tiny per-core region, L1-resident => L1 hits;
 *  - tile: per-core region between L1 and its L2 share => intra-core
 *    L2 locality; 15 x tileBytes counts against the 768 KB L2;
 *  - shared: one region for all cores => inter-core L2 locality;
 *  - random: much larger than the L2 => DRAM traffic, row-hostile;
 *  - stream (the remainder): per-warp sequential => DRAM traffic,
 *    row-friendly.
 *
 * Reading guide:
 *  - heavy stream/random => DRAM-bound (lbm, nn, stencil: P_DRAM and
 *    HBM help);
 *  - heavy tile/shared => cache-hierarchy-bound (mm, ss, pvr, bfs:
 *    P_DRAM ~ 1.0, L2 scaling is the win);
 *  - 15*tile + shared near 768 KB => fragile working sets (mm, ii);
 *  - high maxAccessesPerInst with modest memFraction => L1 MSHR /
 *    memory-pipeline bound (sc gains most from L1 scaling);
 *  - small maxCtasPerCore / ilpDistance => latency-sensitive (dwt2d,
 *    leukocyte, nw on Fig. 3);
 *  - loopInsts beyond the 4 KB L1I => fetch hazards (ii, leukocyte).
 */
std::vector<BenchmarkProfile>
buildSuite()
{
    std::vector<BenchmarkProfile> v;

    // 1. Matrix Multiplication (Mars): the most bandwidth-sensitive;
    // per-core A-tiles + a shared B matrix fill the L2 to the brim.
    v.push_back({.name = "mm", .suite = "Map.",
                 .memFraction = 0.52, .storeFraction = 0.04,
                 .ilpDistance = 6,
                 .pHot = 0.10, .pTile = 0.42, .pShared = 0.42,
                 .pRandom = 0.0,
                 .hotBytes = 8 * kKB, .tileBytes = 20 * kKB,
                 .sharedBytes = 300 * kKB,
                 .seed = 101, .paperPinf = 4.90, .paperPdram = 1.01});

    // 2. Lattice-Boltzmann (Parboil): streaming reads+writes;
    // genuinely DRAM-bandwidth-bound.
    v.push_back({.name = "lbm", .suite = "Par.",
                 .memFraction = 0.08, .storeFraction = 0.30,
                 .ilpDistance = 6,
                 .pHot = 0.30, .pTile = 0.12, .pShared = 0.0,
                 .pRandom = 0.0,
                 .tileBytes = 12 * kKB,
                 .storeBytes = 128,
                 .seed = 102, .paperPinf = 3.40, .paperPdram = 1.87});

    // 3. Similarity Score (Mars): shared matrices, cache-bound.
    v.push_back({.name = "ss", .suite = "Map.",
                 .memFraction = 0.30, .storeFraction = 0.06,
                 .ilpDistance = 5,
                 .pHot = 0.14, .pTile = 0.30, .pShared = 0.44,
                 .pRandom = 0.0,
                 .tileBytes = 16 * kKB, .sharedBytes = 340 * kKB,
                 .seed = 103, .paperPinf = 3.23, .paperPdram = 1.00});

    // 4. Nearest Neighbour (Rodinia): streaming distance scan; very
    // latency-tolerant until ~250 cycles; DRAM-bound.
    v.push_back({.name = "nn", .suite = "Rod.",
                 .memFraction = 0.09, .storeFraction = 0.03,
                 .ilpDistance = 8,
                 .pHot = 0.22, .pTile = 0.06, .pShared = 0.04,
                 .pRandom = 0.0,
                 .tileBytes = 12 * kKB, .sharedBytes = 128 * kKB,
                 .seed = 104, .paperPinf = 3.11, .paperPdram = 1.84});

    // 5. Hybrid Sort (Rodinia): bucket phase streams, merge phase has
    // L2 locality; mixed cache/DRAM sensitivity.
    v.push_back({.name = "hybridsort", .suite = "Rod.",
                 .memFraction = 0.09, .storeFraction = 0.20,
                 .ilpDistance = 4,
                 .pHot = 0.28, .pTile = 0.24, .pShared = 0.18,
                 .pRandom = 0.02,
                 .tileBytes = 14 * kKB, .sharedBytes = 220 * kKB,
                 .randomBytes = 8 * kMB,
                 .seed = 105, .paperPinf = 3.10, .paperPdram = 1.24});

    // 6. CFD (Rodinia): unstructured mesh, mildly divergent;
    // cache-hierarchy-bound.
    v.push_back({.name = "cfd", .suite = "Rod.",
                 .memFraction = 0.14, .storeFraction = 0.10,
                 .ilpDistance = 4,
                 .minAccessesPerInst = 1, .maxAccessesPerInst = 4,
                 .pHot = 0.14, .pTile = 0.40, .pShared = 0.36,
                 .pRandom = 0.02,
                 .tileBytes = 20 * kKB, .sharedBytes = 260 * kKB,
                 .seed = 106, .paperPinf = 3.08, .paperPdram = 1.06});

    // 7. Page View Rank (Mars): hash-join-like shared tables.
    v.push_back({.name = "pvr", .suite = "Map.",
                 .memFraction = 0.24, .storeFraction = 0.12,
                 .ilpDistance = 4,
                 .pHot = 0.20, .pTile = 0.14, .pShared = 0.56,
                 .pRandom = 0.02,
                 .tileBytes = 8 * kKB, .sharedBytes = 420 * kKB,
                 .seed = 107, .paperPinf = 2.89, .paperPdram = 1.01});

    // 8. BFS (Rodinia): divergent frontier walks over a graph that
    // mostly fits in L2; reply-bandwidth-bound.
    v.push_back({.name = "bfs", .suite = "Rod.",
                 .memFraction = 0.13, .storeFraction = 0.12,
                 .ilpDistance = 3,
                 .minAccessesPerInst = 2, .maxAccessesPerInst = 6,
                 .pHot = 0.10, .pTile = 0.06, .pShared = 0.64,
                 .pRandom = 0.06,
                 .tileBytes = 6 * kKB, .sharedBytes = 540 * kKB,
                 .randomBytes = 6 * kMB,
                 .seed = 108, .paperPinf = 2.84, .paperPdram = 1.00});

    // 9. lavaMD (Rodinia): neighbour-box reads with chunky force
    // writes; suffers when the request network narrows (Fig. 12).
    v.push_back({.name = "lavaMD", .suite = "Rod.",
                 .memFraction = 0.06, .storeFraction = 0.14,
                 .ilpDistance = 4,
                 .minAccessesPerInst = 1, .maxAccessesPerInst = 4,
                 .pHot = 0.24, .pTile = 0.36, .pShared = 0.34,
                 .pRandom = 0.0,
                 .tileBytes = 16 * kKB, .sharedBytes = 260 * kKB,
                 .storeBytes = 96,
                 .seed = 109, .paperPinf = 2.70, .paperPdram = 1.00});

    // 10. Stream Cluster (Rodinia): few, extremely divergent memory
    // instructions; bottlenecked on L1 MSHRs / memory pipeline.
    v.push_back({.name = "sc", .suite = "Rod.",
                 .memFraction = 0.10, .storeFraction = 0.05,
                 .ilpDistance = 2,
                 .minAccessesPerInst = 10, .maxAccessesPerInst = 20,
                 .pHot = 0.06, .pTile = 0.46, .pShared = 0.30,
                 .pRandom = 0.0,
                 .tileBytes = 12 * kKB, .sharedBytes = 200 * kKB,
                 .seed = 110, .paperPinf = 2.70, .paperPdram = 1.13});

    // 11. BFS (Parboil): like bfs, lower intensity.
    v.push_back({.name = "bfs'", .suite = "Par.",
                 .memFraction = 0.05, .storeFraction = 0.10,
                 .ilpDistance = 3,
                 .minAccessesPerInst = 2, .maxAccessesPerInst = 3,
                 .pHot = 0.26, .pTile = 0.06, .pShared = 0.52,
                 .pRandom = 0.04,
                 .tileBytes = 6 * kKB, .sharedBytes = 480 * kKB,
                 .randomBytes = 4 * kMB,
                 .seed = 111, .paperPinf = 2.10, .paperPdram = 1.00});

    // 12. Inverted Index (Mars): a weaker mm with fetch pressure (big
    // kernel) and the same fragile L2 footprint.
    v.push_back({.name = "ii", .suite = "Map.",
                 .memFraction = 0.10, .storeFraction = 0.18,
                 .ilpDistance = 3,
                 .pHot = 0.22, .pTile = 0.34, .pShared = 0.36,
                 .pRandom = 0.02,
                 .tileBytes = 24 * kKB, .sharedBytes = 340 * kKB,
                 .loopInsts = 640,
                 .seed = 112, .paperPinf = 1.98, .paperPdram = 1.00});

    // 13. SRAD v1 (Rodinia): diffusion stencil, moderate intensity.
    v.push_back({.name = "sradv1", .suite = "Rod.",
                 .memFraction = 0.06, .storeFraction = 0.15,
                 .ilpDistance = 4,
                 .pHot = 0.54, .pTile = 0.24, .pShared = 0.08,
                 .pRandom = 0.0,
                 .tileBytes = 12 * kKB, .sharedBytes = 96 * kKB,
                 .seed = 113, .paperPinf = 1.51, .paperPdram = 1.19});

    // 14. SRAD v2 (Rodinia): same kernel family, more compute.
    v.push_back({.name = "sradv2", .suite = "Rod.",
                 .memFraction = 0.06, .storeFraction = 0.15,
                 .ilpDistance = 4,
                 .pHot = 0.52, .pTile = 0.28, .pShared = 0.08,
                 .pRandom = 0.0,
                 .tileBytes = 14 * kKB, .sharedBytes = 96 * kKB,
                 .seed = 114, .paperPinf = 1.49, .paperPdram = 1.08});

    // 15. Needleman-Wunsch (Rodinia): wavefront parallelism => low
    // occupancy; moderately latency-sensitive.
    v.push_back({.name = "nw", .suite = "Rod.",
                 .numCtas = 45, .warpsPerCta = 4, .maxCtasPerCore = 3,
                 .instsPerWarp = 840,
                 .memFraction = 0.05, .storeFraction = 0.24,
                 .ilpDistance = 2,
                 .pHot = 0.50, .pTile = 0.36, .pShared = 0.10,
                 .pRandom = 0.0,
                 .tileBytes = 18 * kKB, .sharedBytes = 128 * kKB,
                 .seed = 115, .paperPinf = 1.43, .paperPdram = 1.09});

    // 16. stencil (Parboil): perfectly coalesced streaming sweeps;
    // the best DRAM bandwidth efficiency (~65%).
    v.push_back({.name = "stencil", .suite = "Par.",
                 .memFraction = 0.025, .storeFraction = 0.55,
                 .ilpDistance = 6,
                 .pHot = 0.26, .pTile = 0.06, .pShared = 0.0,
                 .pRandom = 0.0,
                 .tileBytes = 8 * kKB,
                 .storeBytes = 128,
                 .seed = 116, .paperPinf = 1.23, .paperPdram = 1.20});

    // 17. dwt2d (Rodinia): small kernels, little TLP; sensitive to
    // even small latencies (Fig. 3).
    v.push_back({.name = "dwt2d", .suite = "Rod.",
                 .numCtas = 45, .warpsPerCta = 4, .maxCtasPerCore = 2,
                 .instsPerWarp = 720,
                 .memFraction = 0.04, .storeFraction = 0.22,
                 .ilpDistance = 2,
                 .pHot = 0.38, .pTile = 0.30, .pShared = 0.06,
                 .pRandom = 0.0,
                 .tileBytes = 14 * kKB, .sharedBytes = 96 * kKB,
                 .seed = 117, .paperPinf = 1.20, .paperPdram = 1.14});

    // 18. SAD (Parboil): compute-heavy video kernel, regular reads.
    v.push_back({.name = "sad", .suite = "Par.",
                 .memFraction = 0.04, .storeFraction = 0.14,
                 .ilpDistance = 5,
                 .pHot = 0.50, .pTile = 0.26, .pShared = 0.08,
                 .pRandom = 0.0,
                 .tileBytes = 12 * kKB, .sharedBytes = 96 * kKB,
                 .seed = 118, .paperPinf = 1.16, .paperPdram = 1.09});

    // 19. Leukocyte (Rodinia): compute-bound with little TLP and a
    // kernel too big for the L1I (fetch hazards).
    v.push_back({.name = "leukocyte", .suite = "Rod.",
                 .numCtas = 45, .warpsPerCta = 6, .maxCtasPerCore = 3,
                 .instsPerWarp = 700,
                 .memFraction = 0.02, .storeFraction = 0.10,
                 .sfuFraction = 0.20,
                 .ilpDistance = 2,
                 .sfuLatency = 24,
                 .pHot = 0.60, .pTile = 0.24, .pShared = 0.06,
                 .pRandom = 0.0,
                 .tileBytes = 10 * kKB, .sharedBytes = 64 * kKB,
                 .loopInsts = 480,
                 .seed = 119, .paperPinf = 1.08, .paperPdram = 1.00});

    for (auto &p : v) {
        if (p.numCtas == 0)
            fatal("profile '%s' has no CTAs", p.name.c_str());
        // Stationary tiles: the whole region is the reuse window.
        p.tileWindowBytes = p.tileBytes;
        p.tileWindowAdvance = 0;
    }
    return v;
}

} // anonymous namespace

const std::vector<BenchmarkProfile> &
benchmarkSuite()
{
    static const std::vector<BenchmarkProfile> suite = buildSuite();
    return suite;
}

const BenchmarkProfile *
findBenchmark(const std::string &name)
{
    for (const auto &p : benchmarkSuite())
        if (p.name == name)
            return &p;
    return nullptr;
}

BenchmarkProfile
makeTestProfile(const std::string &name)
{
    BenchmarkProfile p;
    p.name = name;
    p.suite = "test";
    p.numCtas = 16;
    p.warpsPerCta = 4;
    p.maxCtasPerCore = 4;
    p.instsPerWarp = 120;
    p.seed = 999;

    if (name == "tiny-compute") {
        p.memFraction = 0.05;
        p.pHot = 1.0;
        p.pTile = p.pShared = p.pRandom = 0.0;
    } else if (name == "tiny-stream") {
        p.memFraction = 0.5;
        p.storeFraction = 0.2;
        p.pHot = p.pTile = p.pShared = p.pRandom = 0.0; // all stream
    } else if (name == "tiny-l2") {
        p.memFraction = 0.5;
        p.storeFraction = 0.0;
        p.pHot = 0.0;
        p.pTile = 0.0;
        p.pShared = 1.0;
        p.pRandom = 0.0;
        p.sharedBytes = 256 * kKB;
    } else if (name == "tiny-divergent") {
        // Streaming with 4-way coalescing divergence: every warp load
        // touches 4 lines with a 32-byte demand each, so the bypass
        // and sectored hierarchy variants have partial-line traffic
        // to shrink. Stores exercise the sectored no-fetch-on-write
        // path.
        p.memFraction = 0.5;
        p.storeFraction = 0.25;
        p.pHot = p.pTile = p.pShared = p.pRandom = 0.0; // all stream
        p.minAccessesPerInst = 4;
        p.maxAccessesPerInst = 4;
    } else if (name == "tiny-latency") {
        // Latency-bound probe for the perf harness: a single CTA with
        // one warp issuing a chain of dependent random misses
        // (ilpDistance=1, pRandom=1 over a DRAM-sized region), so the
        // whole machine quiesces for the ~hundreds-of-cycles round
        // trip of every load. Under the skip scheduler every SM, bank
        // and channel sleeps through those dead cycles; lockstep
        // ticks each of them one edge at a time.
        p.numCtas = 1;
        p.warpsPerCta = 1;
        p.maxCtasPerCore = 1;
        p.instsPerWarp = 1500;
        p.memFraction = 0.9;
        p.storeFraction = 0.0;
        p.ilpDistance = 1;
        p.pHot = p.pTile = p.pShared = 0.0;
        p.pRandom = 1.0;
        p.randomBytes = 64 * kMB;
    } else if (name == "tiny-mixed") {
        p.memFraction = 0.35;
        p.storeFraction = 0.2;
        p.pHot = 0.2;
        p.pTile = 0.3;
        p.pShared = 0.2;
        p.pRandom = 0.1;
        p.tileBytes = 16 * kKB;
        p.tileWindowBytes = 16 * kKB;
        p.tileWindowAdvance = 0;
    } else {
        fatal("unknown test profile '%s'", name.c_str());
    }
    return p;
}

#if defined(__GLIBCXX__) && defined(__x86_64__) && _GLIBCXX_USE_CXX11_ABI
// Trip-wire for cacheKey() completeness; see the GpuConfig twin in
// src/gpu/gpu_config.cc.
static_assert(sizeof(BenchmarkProfile) == 240,
              "BenchmarkProfile changed: consider the new field for "
              "cacheKey() and update this size");
#endif

std::string
BenchmarkProfile::cacheKey() const
{
    // Mirror of GpuConfig::cacheKey(): every knob that shapes the
    // generated trace must appear, or the SimCache would conflate
    // distinct workloads. paperPinf/paperPdram are report-only
    // reference values and deliberately stay out of the key.
    KeyBuilder kb(256);
    auto addU = [&kb](std::uint64_t v) { kb.addU(v); };
    auto addI = [&kb](long long v) { kb.addI(v); };
    auto addF = [&kb](double v) { kb.addF(v); };

    kb.addStr(name);
    kb.addStr(suite);
    addI(numCtas);
    addI(warpsPerCta);
    addI(maxCtasPerCore);
    addI(instsPerWarp);
    addF(memFraction);
    addF(storeFraction);
    addF(sfuFraction);
    addI(ilpDistance);
    addU(aluLatency);
    addU(sfuLatency);
    addI(minAccessesPerInst);
    addI(maxAccessesPerInst);
    addF(pHot);
    addF(pTile);
    addF(pShared);
    addF(pRandom);
    addU(hotBytes);
    addU(tileBytes);
    addU(tileWindowBytes);
    addI(tileWindowAdvance);
    addU(sharedBytes);
    addU(randomBytes);
    addU(storeBytes);
    addI(loopInsts);
    addU(seed);
    return std::move(kb).str();
}

bool
BenchmarkProfile::operator==(const BenchmarkProfile &o) const
{
    return cacheKey() == o.cacheKey();
}

} // namespace bwsim
