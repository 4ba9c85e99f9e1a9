#include "core/sim_cache.hh"

#include <string_view>

namespace bwsim
{

SimCache &
SimCache::global()
{
    static SimCache cache;
    return cache;
}

std::string
SimCache::keyOf(const WorkloadSpec &workload, const GpuConfig &config)
{
    return joinKey(workload.cacheKey(), config.cacheKey());
}

std::string
SimCache::joinKey(const std::string &workload_key,
                  const std::string &config_key)
{
    std::string key;
    key.reserve(workload_key.size() + 1 + config_key.size());
    key += workload_key;
    key += '\n';
    key += config_key;
    return key;
}

SimResult
SimCache::run(const WorkloadSpec &workload, const GpuConfig &config)
{
    std::vector<RunSpec> spec{{workload, config}};
    return runAll(spec, 1).front();
}

void
SimCache::attachDiskTier(const std::string &dir)
{
    // Construct outside the lock: DiskSimCache creates the directory.
    std::shared_ptr<DiskSimCache> tier;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (dir.empty()) {
            disk.reset();
            return;
        }
        if (disk && disk->dir() == dir)
            return;
    }
    tier = std::make_shared<DiskSimCache>(dir);
    std::lock_guard<std::mutex> lock(mu);
    disk = std::move(tier);
}

void
SimCache::setSimulationBackend(std::shared_ptr<ExecutionBackend> backend)
{
    std::lock_guard<std::mutex> lock(mu);
    simBackend = std::move(backend);
}

std::vector<SimResult>
SimCache::simulate(const std::shared_ptr<ExecutionBackend> &backend,
                   const std::vector<RunSpec> &specs, int threads)
{
    if (backend)
        return backend->runAll(specs, threads);
    ThreadedBackend threaded;
    return threaded.runAll(specs, threads);
}

std::vector<SimResult>
SimCache::runAll(const std::vector<RunSpec> &specs, int threads)
{
    std::vector<SimResult> out(specs.size());

    // Each spec's key: the one it carries, else one derived here,
    // outside the lock. Everything below indexes into specs and keys
    // rather than copying them: a whole experiment can be one batch.
    std::vector<std::string> derived(specs.size());
    std::vector<const std::string *> keys(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].key.empty()) {
            derived[i] = keyOf(specs[i].workload, specs[i].config);
            keys[i] = &derived[i];
        } else {
            keys[i] = &specs[i].key;
        }
    }

    // Memory hits, then the first spec of each missing key; later
    // specs with that key copy its result at the end.
    std::vector<std::size_t> misses; // first spec of each missing key
    std::vector<std::size_t> dups;   // later specs with a missing key
    // Views into specs and derived, whose strings stay put: neither
    // vector grows.
    std::unordered_map<std::string_view, std::size_t> first_miss;
    std::shared_ptr<DiskSimCache> disk_tier;
    std::shared_ptr<ExecutionBackend> backend;
    {
        std::lock_guard<std::mutex> lock(mu);
        disk_tier = disk;
        backend = simBackend;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto it = results.find(*keys[i]);
            if (it != results.end()) {
                out[i] = it->second;
                ++hitCount;
            } else if (first_miss.emplace(*keys[i], i).second) {
                misses.push_back(i);
            } else {
                dups.push_back(i);
            }
        }
    }
    if (misses.empty())
        return out;

    // The disk tier, then the backend, outside the lock.
    std::uint64_t disk_hits = 0, disk_stores = 0;
    std::vector<RunSpec> to_sim;
    std::vector<std::size_t> sim_idx;
    for (std::size_t i : misses) {
        if (disk_tier && disk_tier->load(*keys[i], out[i])) {
            ++disk_hits;
        } else {
            to_sim.push_back(specs[i]);
            sim_idx.push_back(i);
        }
    }
    if (!to_sim.empty()) {
        std::vector<SimResult> fresh = simulate(backend, to_sim, threads);
        for (std::size_t j = 0; j < sim_idx.size(); ++j) {
            if (disk_tier && disk_tier->store(*keys[sim_idx[j]], fresh[j]))
                ++disk_stores;
            out[sim_idx[j]] = std::move(fresh[j]);
        }
    }
    for (std::size_t i : dups)
        out[i] = out[first_miss.at(*keys[i])];

    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i : misses)
        results.emplace(*keys[i], out[i]);
    runCount += to_sim.size();
    diskHitCount += disk_hits;
    diskStoreCount += disk_stores;
    return out;
}

void
SimCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    results.clear();
    hitCount = 0;
    runCount = 0;
    diskHitCount = 0;
    diskStoreCount = 0;
}

std::uint64_t
SimCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return hitCount;
}

std::uint64_t
SimCache::simsRun() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runCount;
}

std::uint64_t
SimCache::diskHits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return diskHitCount;
}

std::uint64_t
SimCache::diskStores() const
{
    std::lock_guard<std::mutex> lock(mu);
    return diskStoreCount;
}

std::size_t
SimCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return results.size();
}

} // namespace bwsim
