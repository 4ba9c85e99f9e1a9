/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: tag
 * array probes, MSHR churn, crossbar flit throughput, DRAM scheduling,
 * and whole-GPU cycles/second. These guard the simulator's own
 * performance (the DSE sweeps run hundreds of simulations).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/dse.hh"
#include "dram/dram_channel.hh"
#include "gpu/gpu.hh"
#include "icnt/crossbar.hh"

using namespace bwsim;

namespace
{

void
BM_TagArrayProbe(benchmark::State &state)
{
    TagArray tags(64 * 1024, 128, 8);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tags.probe(a));
        a += 128;
    }
}
BENCHMARK(BM_TagArrayProbe);

void
BM_MshrAllocateFill(benchmark::State &state)
{
    MshrTable mshr(32, 8);
    std::vector<MshrWaiter> out;
    Addr a = 0;
    for (auto _ : state) {
        const int e = mshr.allocate(a);
        mshr.addWaiter(e, MshrWaiter{0, 0, nullptr, false});
        out.clear();
        mshr.fill(mshr.find(a), out);
        a += 128;
    }
}
BENCHMARK(BM_MshrAllocateFill);

void
BM_CacheReadHit(benchmark::State &state)
{
    MemFetchAllocator alloc;
    CacheParams p;
    p.sizeBytes = 16 * 1024;
    p.missQueueEntries = 64;
    CacheModel cache(p, &alloc, 0);
    // Warm one line via miss + fill.
    CacheAccess acc;
    acc.lineAddr = 0;
    acc.warpId = 0;
    acc.slotId = 0;
    Cycle now = 1;
    cache.access(acc, now, 0.0);
    MemFetch *mf = cache.missQueuePop();
    std::vector<MshrWaiter> woken;
    cache.fill(mf, now, 0.0, woken);
    alloc.free(mf);
    for (auto _ : state) {
        ++now;
        benchmark::DoNotOptimize(cache.access(acc, now, 0.0));
    }
}
BENCHMARK(BM_CacheReadHit);

void
BM_CrossbarFlit(benchmark::State &state)
{
    NetworkParams np;
    np.numSources = 15;
    np.numDests = 12;
    np.ejQueuePackets = 4;
    CrossbarNetwork net(np);
    MemFetch mf;
    std::uint32_t src = 0, dst = 0;
    for (auto _ : state) {
        if (net.canAccept(src))
            net.inject(src, dst, &mf, 8, 0.0);
        net.tick();
        if (net.ejectReady(dst))
            benchmark::DoNotOptimize(net.ejectPop(dst));
        src = (src + 1) % np.numSources;
        dst = (dst + 1) % np.numDests;
    }
}
BENCHMARK(BM_CrossbarFlit);

void
BM_DramChannelTick(benchmark::State &state)
{
    MemFetchAllocator alloc;
    DramParams dp;
    DramChannel chan(dp, &alloc, 0);
    Addr a = 0;
    for (auto _ : state) {
        if (chan.canAccept()) {
            MemFetch *mf = alloc.alloc();
            mf->lineAddr = a;
            a += 128 * 6; // stay in this partition's interleave slots
            chan.push(mf);
        }
        chan.tick(0.0);
        while (chan.returnReady())
            alloc.free(chan.returnPop());
    }
}
BENCHMARK(BM_DramChannelTick);

void
BM_FullGpuCycles(benchmark::State &state)
{
    BenchmarkProfile prof = makeTestProfile("tiny-mixed");
    prof.numCtas = 10000; // never exhausts during the benchmark
    GpuConfig cfg = GpuConfig::baseline();
    Gpu gpu(cfg, prof);
    for (auto _ : state)
        gpu.runCycles(100);
    state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_FullGpuCycles)->Unit(benchmark::kMicrosecond);

} // anonymous namespace

BENCHMARK_MAIN();
