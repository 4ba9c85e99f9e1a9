/**
 * @file
 * SimCache tests: cached results are bit-identical to fresh runs
 * (simulations are deterministic under fixed RNG seeds), duplicate
 * specs in one batch simulate once, a two-figure driver run performs
 * the baseline benchmark simulations exactly once, and the --jobs
 * fork fan-out returns the thread pool's results byte for byte.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <unordered_map>

#include "cli/cli.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu.hh"
#include "workloads/workload_spec.hh"

using namespace bwsim;

namespace
{

GpuConfig
quickConfig(GpuConfig c = GpuConfig::baseline())
{
    c.maxCoreCycles = 400000;
    return c;
}

/** Every field a figure can read must match exactly. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.elapsedPs, b.elapsedPs);
    EXPECT_EQ(a.warpInstsIssued, b.warpInstsIssued);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.perf, b.perf);
    EXPECT_EQ(a.issueStallFrac, b.issueStallFrac);
    EXPECT_EQ(a.aml, b.aml);
    EXPECT_EQ(a.l2Ahl, b.l2Ahl);
    EXPECT_EQ(a.issueStallDist, b.issueStallDist);
    EXPECT_EQ(a.l2AccessQueueOcc, b.l2AccessQueueOcc);
    EXPECT_EQ(a.dramQueueOcc, b.dramQueueOcc);
    EXPECT_EQ(a.l2StallDist, b.l2StallDist);
    EXPECT_EQ(a.l1StallDist, b.l1StallDist);
    EXPECT_EQ(a.l1MissRate, b.l1MissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.dramEfficiency, b.dramEfficiency);
    EXPECT_EQ(a.dramRowHitRate, b.dramRowHitRate);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
}

} // namespace

TEST(SimCache, HitIsBitIdenticalToFreshRun)
{
    BenchmarkProfile p = makeTestProfile("tiny-mixed");
    GpuConfig cfg = quickConfig();

    SimResult fresh = runOne(p, cfg);

    SimCache cache;
    SimResult first = cache.run(p, cfg);   // miss: simulates
    SimResult second = cache.run(p, cfg);  // hit: recalls
    EXPECT_EQ(cache.simsRun(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    expectIdentical(first, fresh);
    expectIdentical(second, fresh);
}

TEST(SimCache, DistinctConfigsDoNotCollide)
{
    BenchmarkProfile p = makeTestProfile("tiny-stream");
    GpuConfig base = quickConfig();
    GpuConfig pdram = quickConfig(GpuConfig::idealDram());

    SimCache cache;
    SimResult a = cache.run(p, base);
    SimResult b = cache.run(p, pdram);
    EXPECT_EQ(cache.simsRun(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(a.config, "baseline");
    EXPECT_EQ(b.config, "P-DRAM");
}

TEST(SimCache, DistinctProfilesDoNotCollide)
{
    GpuConfig cfg = quickConfig();
    SimCache cache;
    SimResult a = cache.run(makeTestProfile("tiny-compute"), cfg);
    SimResult b = cache.run(makeTestProfile("tiny-stream"), cfg);
    EXPECT_EQ(cache.simsRun(), 2u);
    EXPECT_NE(a.benchmark, b.benchmark);
}

TEST(SimCache, DuplicateSpecsInOneBatchSimulateOnce)
{
    BenchmarkProfile p = makeTestProfile("tiny-compute");
    GpuConfig cfg = quickConfig();
    SimCache cache;

    std::vector<RunSpec> specs{{p, cfg}, {p, cfg}, {p, cfg}};
    auto results = cache.runAll(specs, 1);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(cache.simsRun(), 1u);
    expectIdentical(results[0], results[1]);
    expectIdentical(results[0], results[2]);
}

TEST(SimCache, ParallelRunnerFillsCacheInSpecOrder)
{
    GpuConfig cfg = quickConfig();
    std::vector<RunSpec> specs{{makeTestProfile("tiny-compute"), cfg},
                               {makeTestProfile("tiny-stream"), cfg},
                               {makeTestProfile("tiny-l2"), cfg}};
    SimCache cache;
    auto par = cache.runAll(specs, 3);
    EXPECT_EQ(cache.simsRun(), 3u);
    ASSERT_EQ(par.size(), 3u);
    EXPECT_EQ(par[0].benchmark, "tiny-compute");
    EXPECT_EQ(par[1].benchmark, "tiny-stream");
    EXPECT_EQ(par[2].benchmark, "tiny-l2");
    // A second, serial pass is all hits and identical.
    auto ser = cache.runAll(specs, 1);
    EXPECT_EQ(cache.simsRun(), 3u);
    EXPECT_EQ(cache.hits(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        expectIdentical(par[i], ser[i]);
}

TEST(SimCache, ClearForgetsResultsAndCounters)
{
    BenchmarkProfile p = makeTestProfile("tiny-compute");
    GpuConfig cfg = quickConfig();
    SimCache cache;
    cache.run(p, cfg);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.simsRun(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    cache.run(p, cfg);
    EXPECT_EQ(cache.simsRun(), 1u);
}

TEST(SimCache, TwoFigureDriverRunSimulatesBaselineOnce)
{
    // The acceptance scenario: figs. 1 and 4 both need the baseline
    // runs; one driver invocation must simulate each benchmark once
    // and serve the second figure entirely from the cache.
    exp::ExperimentOptions opts;
    opts.benchmarks = {"bfs", "lbm"};
    opts.threads = 1;
    opts.shrink = 8;

    SimCache &cache = SimCache::global();
    cache.clear();
    exp::configureExecution(opts);

    std::ostringstream out;
    cli::findExperiment("fig1")->run(opts, out);
    EXPECT_EQ(cache.simsRun(), 2u); // one per benchmark
    EXPECT_EQ(cache.hits(), 0u);

    cli::findExperiment("fig4")->run(opts, out);
    EXPECT_EQ(cache.simsRun(), 2u) << "fig4 re-simulated the baseline";
    EXPECT_EQ(cache.hits(), 2u);

    cache.clear(); // leave no cross-test state behind
}

TEST(SimCache, ConfigKeySeesEveryPresetDistinctly)
{
    // Every preset family must key differently from baseline, or the
    // DSE sweeps would silently reuse the wrong results.
    std::vector<GpuConfig> cfgs{
        GpuConfig::baseline(),         GpuConfig::scaledL1(),
        GpuConfig::scaledL2(),         GpuConfig::scaledDram(),
        GpuConfig::scaledL1L2(),       GpuConfig::scaledL2Dram(),
        GpuConfig::scaledAll(),        GpuConfig::costEffective16_48(),
        GpuConfig::costEffective16_68(), GpuConfig::costEffective32_52(),
        GpuConfig::perfectMem(),       GpuConfig::idealDram(),
        GpuConfig::fixedL1Lat(100),    GpuConfig::fixedL1Lat(200)};
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        for (std::size_t j = i + 1; j < cfgs.size(); ++j)
            EXPECT_NE(cfgs[i].cacheKey(), cfgs[j].cacheKey())
                << cfgs[i].name << " vs " << cfgs[j].name;
    EXPECT_EQ(GpuConfig::baseline(), GpuConfig::baseline());
    EXPECT_NE(GpuConfig::baseline(), GpuConfig::scaledL2());
}

TEST(SimCache, GpuConfigHashKeysUnorderedContainers)
{
    // GpuConfig::Hash + operator== make GpuConfig usable directly as
    // an unordered_map key (the planned on-disk cache keys by it).
    std::unordered_map<GpuConfig, int, GpuConfig::Hash> seen;
    seen[GpuConfig::baseline()] = 1;
    seen[GpuConfig::scaledL2()] = 2;
    seen[GpuConfig::baseline()] = 3; // same key: overwrite, not insert
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen.at(GpuConfig::baseline()), 3);
    EXPECT_EQ(seen.at(GpuConfig::scaledL2()), 2);
}

namespace
{

/** Counting pass-through backend: proves the simulation seam is
 *  pluggable and sees only cache misses. */
class CountingBackend : public ExecutionBackend
{
  public:
    std::string name() const override { return "counting"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads) override
    {
        calls += specs.size();
        return inner.runAll(specs, threads);
    }

    std::size_t calls = 0;

  private:
    ThreadedBackend inner;
};

} // namespace

TEST(SimCache, SimulationBackendIsPluggable)
{
    BenchmarkProfile p = makeTestProfile("tiny-compute");
    GpuConfig cfg = quickConfig();

    auto counting = std::make_shared<CountingBackend>();
    SimCache cache;
    cache.setSimulationBackend(counting);

    SimResult a = cache.run(p, cfg);
    SimResult b = cache.run(p, cfg); // memory hit: backend not called
    EXPECT_EQ(counting->calls, 1u);
    EXPECT_EQ(cache.simsRun(), 1u);
    expectIdentical(a, b);

    cache.setSimulationBackend(nullptr); // back to the default
    cache.clear();
    cache.run(p, cfg);
    EXPECT_EQ(counting->calls, 1u);
}

#ifdef __unix__
namespace
{

/** Synthetic, trace and generator workloads, with duplicate specs. */
std::vector<RunSpec>
mixedBatch()
{
    auto trace = std::make_shared<TraceData>();
    trace->sourceName = "mixed";
    for (int i = 0; i < 200; ++i) {
        TraceRecord r;
        r.op = (i % 4 == 3) ? Op::Store : Op::Load;
        r.addr = 0x20000 + static_cast<Addr>((i * 29) % 96) * 128;
        trace->records.push_back(r);
    }
    sealTrace(*trace);
    WorkloadSpec pchase;
    EXPECT_TRUE(parseGeneratorForm("pchase:4k:64", pchase));

    const GpuConfig base = quickConfig();
    const GpuConfig pdram = quickConfig(GpuConfig::idealDram());
    const WorkloadSpec tiny(makeTestProfile("tiny-mixed"));
    const WorkloadSpec traced = makeTraceWorkload(trace);
    return {{tiny, base}, {traced, base}, {pchase, pdram}, {tiny, base},
            {traced, pdram}, {pchase, pdram}, {tiny, pdram}};
}

std::string
resultBytes(const SimResult &r)
{
    ByteWriter w;
    serializeResult(w, r);
    return std::move(w).take();
}

} // namespace

TEST(SimCache, ForkBackendMatchesThreadedBackendByteForByte)
{
    const std::vector<RunSpec> specs = mixedBatch();
    const auto threaded = ThreadedBackend().runAll(specs, 2);
    ASSERT_EQ(threaded.size(), specs.size());
    // Two children share the batch; twenty fork one child per spec.
    for (int jobs : {2, 20}) {
        const auto forked = ForkBackend(jobs).runAll(specs);
        ASSERT_EQ(forked.size(), specs.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultBytes(forked[i]), resultBytes(threaded[i]))
                << "jobs=" << jobs << " spec " << i;
    }
    EXPECT_TRUE(ForkBackend(2).runAll({}).empty());
}

TEST(SimCacheDeathTest, ForkBackendFailsWhenAWorkerDies)
{
    // A config that fails validate() makes the child that claims it
    // fatal(); the parent must notice, fail with one line and exit 1.
    std::vector<RunSpec> specs = mixedBatch();
    specs[1].config.numCores = 0;
    EXPECT_EXIT(ForkBackend(2).runAll(specs), ::testing::ExitedWithCode(1),
                "a --jobs worker failed");
}
#endif // __unix__
