/**
 * @file
 * Sweep-level benchmark runner for bwsim; benchmark/README.md documents
 * the workloads and metrics, benchmark/run.sh builds and calls this.
 *
 * Untraced runs time the production `bwsim` binary from spawn to exit
 * (posix_spawn + wait4, which also returns the rusage of the process
 * and of the --jobs workers it reaped). The traced run then replays
 * each workload once in this process through the public experiment
 * API, with span-recording execution backends installed at the two
 * seams (experiments -> SimCache, SimCache -> simulation), and times
 * the disk tier, serdes and CLI start-up directly.
 *
 *   bwsim_bench --bwsim PATH [--workload NAME] [--seed N] [--seconds S]
 *               [--trace 0|1] [--out FILE] [--smoke] [--commit SHA]
 *
 * With --workload, one workload is measured for --seconds and the last
 * stdout line is a JSON result holding the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1). Without it, all
 * workloads run a fixed number of interleaved reps and every metric is
 * printed.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cli/cli.hh"
#include "common/log.hh"
#include "common/serdes.hh"
#include "core/disk_cache.hh"
#include "core/experiments.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "sim/tick_profile.hh"
#include "workloads/profile.hh"

extern char **environ;

namespace
{

namespace fs = std::filesystem;
using namespace bwsim;
using Clock = std::chrono::steady_clock;

/** Host threads (or --jobs workers) every workload uses; the
 *  reference host has 4 vCPUs. */
constexpr int kThreads = 4;
/** Untimed preparations per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** `bwsim tab1` spawns behind cli.startup_ms. */
constexpr int kStartupSpawns = 200;
/** Lower bound on timed disk-tier and serdes operations, so their
 *  p99 has ten samples beyond it. */
constexpr std::size_t kMicroOps = 1000;
/** Warm-up and smoke size. */
constexpr int kSmallShrink = 16;
/** Least spacing of host-speed probes in the timed loop. */
constexpr double kProbeEverySec = 1.0;
/** hostProbe() time on the reference host (4-vCPU Xeon) when quiet;
 *  end-to-end times are scaled to that host speed. */
constexpr double kProbeReferenceSec = 0.08;

const std::string kOutDir = "benchmark/out";
const std::string kGoldenDir = "tests/golden";
/** The cache dir warm-rerender fills during set-up and then reads. */
const std::string kWarmDir = kOutDir + "/warm-cache";

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear interpolation between closest ranks; 0 when @p v is empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += csprintf("\\u%04x", c);
        else
            out += c;
    }
    return out + "\"";
}

/** Every measured digit; counts print as integers. */
std::string
jsonNumber(double v)
{
    return csprintf("%.15g", v);
}

// ------------------------------------------------------------ metrics

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics of the untraced `bwsim` runs; see endToEnd(). */
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

/** Per-layer metrics of the traced run; see README.md for what each
 *  should move. */
const std::vector<MetricDef> kPerLayer = {
    {"workloads.resolve_ms", "ms"},
    {"gpu.sims", "count"},
    {"gpu.construct_s", "s"},
    {"gpu.run_s", "s"},
    {"gpu.run_p50_ms", "ms"},
    {"gpu.run_p90_ms", "ms"},
    {"gpu.run_max_ms", "ms"},
    {"sim.core_cycles", "count"},
    {"sim.ticked_edges", "count"},
    {"sim.skipped_edges", "count"},
    {"sim.fused_spans", "count"},
    {"sim.skip_ratio", "ratio"},
    {"sim.ns_per_core_cycle", "ns"},
    {"smcore.ticks", "count"},
    {"smcore.tick_s", "s"},
    {"smcore.ns_per_tick", "ns"},
    {"icnt.ticks", "count"},
    {"icnt.tick_s", "s"},
    {"icnt.ns_per_tick", "ns"},
    {"dram.ticks", "count"},
    {"dram.tick_s", "s"},
    {"dram.ns_per_tick", "ns"},
    {"core.backend.batches", "count"},
    {"core.backend.batch_wall_s", "s"},
    {"core.backend.self_s", "s"},
    {"core.backend.pool_util", "ratio"},
    {"core.backend.cpu_util", "ratio"},
    {"core.sim_cache.sims", "count"},
    {"core.sim_cache.mem_hits", "count"},
    {"core.sim_cache.disk_hits", "count"},
    {"core.sim_cache.disk_stores", "count"},
    {"core.sim_cache.self_s", "s"},
    {"core.disk_cache.load_us_p50", "us"},
    {"core.disk_cache.load_us_p99", "us"},
    {"core.disk_cache.store_us_p50", "us"},
    {"core.disk_cache.store_us_p99", "us"},
    {"core.disk_cache.entry_bytes", "B"},
    {"common.serdes.encode_us_p50", "us"},
    {"common.serdes.decode_us_p50", "us"},
    {"core.experiments.tables_ms", "ms"},
    {"core.experiments.output_bytes", "B"},
    {"core.experiments.self_s", "s"},
    {"cli.startup_ms", "ms"},
    {"smcore.warp_insts", "count"},
    {"smcore.ipc_mean", "inst/cycle"},
    {"smcore.aml_cycles_mean", "cycles"},
    {"cache.l1_miss_rate_mean", "ratio"},
    {"cache.l2_miss_rate_mean", "ratio"},
    {"cache.l1_stall_cycles", "cycles"},
    {"cache.l2_stall_cycles", "cycles"},
    {"icnt.l2_util_mean", "ratio"},
    {"dram.row_hit_rate_mean", "ratio"},
    {"dram.l2_dram_bytes", "B"},
    {"dram.util_mean", "ratio"},
    {"pinf_err_pct", "%"},
    {"pdram_err_pct", "%"},
    {"trace.overhead_pct", "%"},
};

// ---------------------------------------------------------- workloads

enum class Kind
{
    Threads, ///< in-process pool, memory-only SimCache
    Jobs,    ///< forked shard workers over a fresh --cache-dir
    Warm,    ///< every result already in the --cache-dir
};

struct Workload
{
    std::string name;
    std::vector<std::string> experiments;
    /** --shrink of the timed runs (the smoke run uses kSmallShrink). */
    int shrink;
    Kind kind;
};

/**
 * The four workloads. Each stresses a different layer: the
 * memory-side tick paths with skipping bypassed (dse-bandwidth), the
 * core tick path with skipping exercised and a half-idle pool
 * (latency-sweep), the fork/disk-tier/merge path plus trace parsing
 * (jobs-mitigations), and the read/serdes/table path with no
 * simulation at all (warm-rerender).
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"dse-bandwidth", {"tab2", "fig10"}, 2, Kind::Threads},
        {"latency-sweep", {"fig3"}, 2, Kind::Threads},
        {"jobs-mitigations", {"sec6", "fig12"}, 2, Kind::Jobs},
        {"warm-rerender",
         {"fig1", "tab2", "fig3", "fig4", "fig5", "sec4", "fig7", "fig8",
          "fig9", "sec6", "fig10", "fig11", "fig12", "ablation"},
         4, Kind::Warm},
    };
    return all;
}

/** tests/golden snapshots an experiment prints, in print order. */
std::vector<std::string>
goldensOf(const std::string &experiment)
{
    if (experiment == "sec6")
        return {"sec6bw", "sec6speedup"};
    static const std::set<std::string> single = {
        "tab2", "fig3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"};
    if (single.count(experiment))
        return {experiment};
    return {};
}

std::string
suiteNames()
{
    std::string out;
    for (const auto &p : benchmarkSuite())
        out += (out.empty() ? "" : ",") + p.name;
    return out;
}

/**
 * The seeded input of jobs-mitigations: 120 CTA tags x 200 ld/st
 * records, 30% stores. Even records stream through per-CTA lines; odd
 * ones are uniform over 3 MB, four times the 768 KB L2. The suite
 * profiles carry fixed seeds (src/workloads/suite.cc), so this file is
 * the only input --seed changes.
 */
std::string
writeSeededTrace(std::uint64_t seed)
{
    constexpr int kCtas = 120, kPerCta = 200, kStores = 60;
    constexpr std::uint64_t kLine = 128;
    constexpr std::uint64_t kStreamBase = 0x10000000;
    constexpr std::uint64_t kUniformBase = 0x40000000;
    constexpr std::uint64_t kUniformLines = (3u << 20) / kLine;

    std::uint64_t state = seed;
    auto next = [&state]() { // splitmix64
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };

    const std::string path =
        kOutDir + "/mitigations-" + std::to_string(seed) + ".trace";
    std::ofstream f(path, std::ios::trunc);
    for (int cta = 0; cta < kCtas; ++cta) {
        std::vector<char> store(kPerCta, 0);
        std::fill(store.begin(), store.begin() + kStores, 1);
        for (int i = kPerCta - 1; i > 0; --i)
            std::swap(store[i], store[next() % std::uint64_t(i + 1)]);
        for (int i = 0; i < kPerCta; ++i) {
            const std::uint64_t addr =
                i % 2 == 0
                    ? kStreamBase +
                          (std::uint64_t(cta) * kPerCta / 2 + i / 2) * kLine
                    : kUniformBase + (next() % kUniformLines) * kLine;
            f << (store[i] ? "st" : "ld") << csprintf(" 0x%llx %d\n",
                                                      (unsigned long long)addr,
                                                      cta);
        }
    }
    f.close();
    if (!f)
        fatal("cannot write trace %s", path.c_str());
    return path;
}

// ------------------------------------------------------------ spawning

/** One `bwsim` process, timed from spawn to exit. */
struct Invocation
{
    double wall = 0.0;
    double cpu = 0.0; ///< user + sys, reaped children included
    double rssMb = 0.0;
    bool ok = false;  ///< spawned and exited 0
    std::string out;
    std::string err;
};

double
seconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

Invocation
spawnBwsim(const std::string &bwsim, const std::vector<std::string> &args)
{
    const std::string out_path = kOutDir + "/last.stdout";
    const std::string err_path = kOutDir + "/last.stderr";
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> argv{const_cast<char *>(bwsim.c_str())};
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    Invocation inv;
    const auto t0 = Clock::now();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, bwsim.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        std::cerr << "bwsim_bench: cannot spawn " << bwsim << ": "
                  << std::strerror(rc) << "\n";
        return inv;
    }
    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR)
            fatal("wait4 failed: %s", std::strerror(errno));
    }
    inv.wall = secondsSince(t0);
    inv.cpu = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    inv.rssMb = double(ru.ru_maxrss) / 1024.0;
    inv.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    inv.out = slurp(out_path);
    inv.err = slurp(err_path);
    return inv;
}

/** Did this --exec-stats invocation run zero simulations? */
bool
simulatedNothing(const Invocation &inv)
{
    return inv.err.find("exec stats: sims=0 ") != std::string::npos;
}

/** A cache directory that does not exist yet (bwsim creates it). */
std::string
freshDir(const std::string &name)
{
    const std::string dir = kOutDir + "/" + name;
    fs::remove_all(dir);
    return dir;
}

/**
 * Host-speed probe: a fixed integer loop on kThreads threads, returning
 * its wall seconds. The code lives in this file, so it is the same on
 * both commits of a comparison; on a shared host it slows down when
 * the neighbours load the machine, as `bwsim` does.
 */
double
hostProbe()
{
    std::vector<std::uint64_t> out(kThreads);
    auto loop = [&out](int t) {
        std::uint64_t x = std::uint64_t(t) + 1, y = 2;
        for (std::uint64_t s = 0; s < 50000000; ++s) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            y ^= x >> 17;
            if (y & 3)
                y += x;
            else
                y -= s;
        }
        out[t] = x ^ y;
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back(loop, t);
    for (auto &t : pool)
        t.join();
    const double sec = secondsSince(t0);
    static std::atomic<std::uint64_t> sink; // keeps the loop observable
    sink.store(out[0] ^ out[kThreads - 1], std::memory_order_relaxed);
    return sec;
}

// ------------------------------------------------------------- tracing

struct Span
{
    std::string name;   ///< layer
    std::string detail; ///< e.g. the experiment name
    int id = 0;
    int parent = -1;
    int tid = 0;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;
};

/** In-memory span store; spans are written out when the run ends. */
class Tracer
{
  public:
    int
    begin(const std::string &name, int parent, const std::string &detail)
    {
        std::lock_guard<std::mutex> lock(mu);
        Span s;
        s.name = name;
        s.detail = detail;
        s.id = static_cast<int>(spanList.size());
        s.parent = parent;
        s.tid = threadIndex();
        s.start = secondsSince(origin);
        spanList.push_back(s);
        return s.id;
    }

    void
    end(int id)
    {
        std::lock_guard<std::mutex> lock(mu);
        spanList[id].end = secondsSince(origin);
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return spanList;
    }

  private:
    static int
    threadIndex()
    {
        static std::atomic<int> next{0};
        thread_local int index = next++;
        return index;
    }

    const Clock::time_point origin = Clock::now();
    mutable std::mutex mu;
    std::vector<Span> spanList;
};

/** Innermost open span on this thread: the parent of new spans. */
thread_local int tlsParent = -1;

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               const std::string &detail = "")
        : tracer(tracer), saved(tlsParent),
          id(tracer.begin(name, tlsParent, detail))
    {
        tlsParent = id;
    }

    ~ScopedSpan()
    {
        tracer.end(id);
        tlsParent = saved;
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer;
    int saved;
    int id;
};

/** Per layer: summed duration and self time (duration minus the part
 *  of it covered by child spans, parallel children merged). */
std::map<std::string, std::pair<double, double>>
layerTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const auto &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back({s.start, s.end});
    std::map<std::string, std::pair<double, double>> out;
    for (const auto &s : spans) {
        auto iv = kids[s.id];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        auto &t = out[s.name];
        t.first += s.end - s.start;
        t.second += (s.end - s.start) - covered;
    }
    return out;
}

void
writeChromeTrace(const std::string &path, const std::string &workload,
                 const std::vector<Span> &spans)
{
    std::ofstream f(path, std::ios::trunc);
    f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        f << "{\"name\": " << jsonString(s.name)
          << ", \"cat\": " << jsonString(workload)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << jsonNumber(s.start * 1e6)
          << ", \"dur\": " << jsonNumber((s.end - s.start) * 1e6)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"workload\": " << jsonString(workload)
          << ", \"detail\": " << jsonString(s.detail) << "}}"
          << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    f << "]}\n";
}

/**
 * The simulation backend of the traced run: a pool like
 * ThreadedBackend whose sims are split into Gpu construction and
 * Gpu::run spans under one core.backend span per batch.
 */
class TracingPool : public ExecutionBackend
{
  public:
    explicit TracingPool(Tracer &tracer) : tracer(tracer) {}

    std::string name() const override { return "tracing-pool"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads) override
    {
        std::vector<SimResult> results(specs.size());
        if (specs.empty())
            return results;
        ScopedSpan batch(tracer, "core.backend");
        const int parent = tlsParent;
        std::atomic<std::size_t> next{0};
        auto worker = [&]() {
            for (std::size_t i; (i = next++) < specs.size();) {
                const int c = tracer.begin("gpu.construct", parent,
                                           specs[i].config.name);
                Gpu gpu(specs[i].config, specs[i].workload);
                tracer.end(c);
                const int r =
                    tracer.begin("gpu.run", parent, specs[i].config.name);
                results[i] = gpu.run();
                tracer.end(r);
            }
        };
        const std::size_t n = std::min<std::size_t>(
            threads > 0 ? threads : kThreads, specs.size());
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
        return results;
    }

  private:
    Tracer &tracer;
};

/** A result an experiment consumed, under its SimCache key. */
struct Consumed
{
    std::string key;
    SimResult result;
};

/**
 * The experiments' backend in the traced run: the default caching
 * front, with one core.sim_cache span per call, recording every
 * distinct result the experiments consumed.
 */
class SimCacheProbe : public ExecutionBackend
{
  public:
    explicit SimCacheProbe(Tracer &tracer) : tracer(tracer) {}

    std::string name() const override { return "caching"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads) override
    {
        std::vector<SimResult> results;
        {
            ScopedSpan span(tracer, "core.sim_cache");
            results = inner.runAll(specs, threads);
        }
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::string key = specs[i].workload.cacheKey() + '\n' +
                              specs[i].config.cacheKey();
            if (seen.insert(key).second)
                consumed.push_back({std::move(key), results[i]});
        }
        return results;
    }

    std::vector<Consumed> consumed;

  private:
    Tracer &tracer;
    CachingBackend inner{SimCache::global()};
    std::unordered_set<std::string> seen;
};

// ---------------------------------------------------------- the runs

struct Plan
{
    int rounds;          ///< timed reps per cold workload
    double seconds;      ///< stop starting rounds after this long
    int warmBlock;       ///< warm-rerender invocations per round
};

/** Everything measured for one workload. */
struct WorkloadRun
{
    const Workload *w = nullptr;
    int shrink = 1;
    bool correct = true;
    std::vector<double> setup, wall, cpu, rss;
    std::string reference; ///< stdout of the first timed rep
    int attempted = 0;
    int failed = 0;
    std::map<std::string, double> layer; ///< per-layer metric values
    std::unique_ptr<Tracer> tracer;
};

struct Context
{
    std::string bwsim;
    std::string tracePath;
    /** hostProbe() seconds, taken between timed reps. */
    std::vector<double> probes;

    /** Factor scaling this run's host times to the reference host. */
    double
    hostScale() const
    {
        return probes.empty()
                   ? 1.0
                   : kProbeReferenceSec / quantile(probes, 0.5);
    }
};

std::vector<std::string>
commandArgs(const Context &ctx, const Workload &w, int shrink,
            const std::string &cache_dir)
{
    std::vector<std::string> args = w.experiments;
    if (w.kind == Kind::Jobs) {
        args.push_back("--benches=" + suiteNames());
        args.push_back("--trace=" + ctx.tracePath);
        args.push_back(csprintf("--jobs=%d", kThreads));
    }
    args.push_back(csprintf("--threads=%d", kThreads));
    args.push_back(csprintf("--shrink=%d", shrink));
    if (!cache_dir.empty())
        args.push_back("--cache-dir=" + cache_dir);
    if (w.kind == Kind::Warm)
        args.push_back("--exec-stats");
    return args;
}

/** Output with '#' title lines and blank lines dropped. */
std::string
tableLines(const std::string &text)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            out += line + "\n";
    return out;
}

/**
 * The correctness gate: the workload's experiments that have golden
 * snapshots, at the golden scenario, through the workload's backend
 * flags, must print exactly tests/golden/<name>.tsv. A warm workload
 * runs twice, filling and then re-reading its cache dir.
 */
bool
passesGate(const Context &ctx, const Workload &w)
{
    std::vector<std::string> args;
    std::string expected;
    for (const auto &e : w.experiments) {
        for (const auto &g : goldensOf(e)) {
            const std::string path = kGoldenDir + "/" + g + ".tsv";
            if (!fs::exists(path)) {
                std::cerr << "bwsim_bench: missing " << path << "\n";
                return false;
            }
            expected += tableLines(slurp(path));
        }
        if (!goldensOf(e).empty())
            args.push_back(e);
    }
    for (const char *a : {"--benches=bfs,lbm", "--shrink=16", "--threads=2",
                          "--format=tsv"})
        args.push_back(a);
    if (w.kind == Kind::Jobs)
        args.push_back(csprintf("--jobs=%d", kThreads));
    if (w.kind != Kind::Threads)
        args.push_back("--cache-dir=" + freshDir("gate-cache"));

    const int passes = w.kind == Kind::Warm ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
        if (pass == 1)
            args.push_back("--exec-stats");
        const Invocation inv = spawnBwsim(ctx.bwsim, args);
        bool ok = inv.ok && tableLines(inv.out) == expected;
        if (pass == 1)
            ok = ok && simulatedNothing(inv);
        if (!ok) {
            std::cerr << "bwsim_bench: " << w.name
                      << ": golden gate failed (pass " << pass << ")\n"
                      << inv.err;
            return false;
        }
    }
    fs::remove_all(kOutDir + "/gate-cache");
    return true;
}

/** One untimed preparation; returns its wall time. */
double
setUpOnce(const Context &ctx, WorkloadRun &run)
{
    const Workload &w = *run.w;
    Invocation inv;
    if (w.kind == Kind::Warm) {
        fs::remove_all(kWarmDir);
        inv = spawnBwsim(ctx.bwsim,
                         commandArgs(ctx, w, run.shrink, kWarmDir));
    } else {
        const std::string dir =
            w.kind == Kind::Jobs ? freshDir("warmup-cache") : "";
        inv = spawnBwsim(ctx.bwsim,
                         commandArgs(ctx, w, kSmallShrink, dir));
        if (!dir.empty())
            fs::remove_all(dir);
    }
    if (!inv.ok) {
        std::cerr << "bwsim_bench: " << w.name << ": set-up failed\n"
                  << inv.err;
        run.correct = false;
    }
    return inv.wall;
}

/** One timed rep, checked against the workload's failure rules. */
void
invokeTimed(const Context &ctx, WorkloadRun &run)
{
    const Workload &w = *run.w;
    std::string dir;
    if (w.kind == Kind::Jobs)
        dir = freshDir("cold-cache");
    else if (w.kind == Kind::Warm)
        dir = kWarmDir;
    const Invocation inv =
        spawnBwsim(ctx.bwsim, commandArgs(ctx, w, run.shrink, dir));
    if (w.kind == Kind::Jobs)
        fs::remove_all(dir);

    ++run.attempted;
    bool ok = inv.ok;
    if (ok && run.reference.empty())
        run.reference = inv.out;
    ok = ok && inv.out == run.reference;
    if (w.kind == Kind::Warm)
        ok = ok && simulatedNothing(inv);
    if (!ok) {
        ++run.failed;
        std::cerr << "bwsim_bench: " << w.name << ": rep " << run.attempted
                  << " failed\n" << inv.err;
        return;
    }
    run.wall.push_back(inv.wall);
    run.cpu.push_back(inv.cpu);
    run.rss.push_back(inv.rssMb);
}

/** Median `bwsim tab1` spawn-to-exit time, in ms. */
double
startupMs(const Context &ctx)
{
    std::vector<double> ms;
    for (int i = 0; i < kStartupSpawns; ++i)
        ms.push_back(spawnBwsim(ctx.bwsim, {"tab1"}).wall * 1e3);
    return quantile(ms, 0.5);
}

/** Time the disk tier and serdes on the workload's own results. */
void
timeDiskAndSerdes(const std::vector<Consumed> &consumed,
                  std::map<std::string, double> &m)
{
    std::vector<double> store_us, load_us, enc_us, dec_us;
    std::uint64_t entry_bytes = 0;
    if (!consumed.empty()) {
        const std::size_t passes =
            (kMicroOps + consumed.size() - 1) / consumed.size();
        const std::string dir = freshDir("disk-bench");
        {
            DiskSimCache disk(dir);
            auto us = [](Clock::time_point t0) {
                return secondsSince(t0) * 1e6;
            };
            for (std::size_t p = 0; p < passes; ++p) {
                for (const auto &c : consumed) {
                    auto t0 = Clock::now();
                    if (!disk.store(c.key, c.result))
                        fatal("disk-tier store failed in %s", dir.c_str());
                    store_us.push_back(us(t0));
                }
            }
            for (std::size_t p = 0; p < passes; ++p) {
                for (const auto &c : consumed) {
                    SimResult r;
                    auto t0 = Clock::now();
                    if (!disk.load(c.key, r))
                        fatal("disk-tier load failed in %s", dir.c_str());
                    load_us.push_back(us(t0));
                }
            }
            for (std::size_t p = 0; p < passes; ++p) {
                for (const auto &c : consumed) {
                    ByteWriter w;
                    auto t0 = Clock::now();
                    serializeResult(w, c.result);
                    enc_us.push_back(us(t0));
                    ByteReader rd(w.bytes());
                    SimResult r;
                    t0 = Clock::now();
                    if (!deserializeResult(rd, r))
                        fatal("deserializeResult rejected its own bytes");
                    dec_us.push_back(us(t0));
                }
            }
        }
        const CacheDirStats st = scanCacheDir(dir);
        entry_bytes = st.entries ? st.bytes / st.entries : 0;
        fs::remove_all(dir);
    }
    m["core.disk_cache.load_us_p50"] = quantile(load_us, 0.5);
    m["core.disk_cache.load_us_p99"] = quantile(load_us, 0.99);
    m["core.disk_cache.store_us_p50"] = quantile(store_us, 0.5);
    m["core.disk_cache.store_us_p99"] = quantile(store_us, 0.99);
    m["core.disk_cache.entry_bytes"] = double(entry_bytes);
    m["common.serdes.encode_us_p50"] = quantile(enc_us, 0.5);
    m["common.serdes.decode_us_p50"] = quantile(dec_us, 0.5);
}

/** Modelled metrics and the Table II calibration residuals. */
void
modelMetrics(const std::vector<Consumed> &consumed,
             std::map<std::string, double> &m)
{
    double insts = 0, l1_stall = 0, l2_stall = 0, dram_bytes = 0;
    std::vector<double> ipc, aml, l1_miss, l2_miss, l2_util, row_hit,
        dram_util;
    // benchmark -> config name -> speedup-relevant result
    std::map<std::string, std::map<std::string, const SimResult *>> by_bench;
    for (const auto &c : consumed) {
        const SimResult &r = c.result;
        insts += double(r.warpInstsIssued);
        l1_stall += double(r.l1StallCycles);
        l2_stall += double(r.l2StallCycles);
        dram_bytes += double(r.l2DramBytes);
        ipc.push_back(r.ipc);
        aml.push_back(r.aml);
        l1_miss.push_back(r.l1MissRate);
        l2_miss.push_back(r.l2MissRate);
        l2_util.push_back(r.icntL2Util);
        row_hit.push_back(r.dramRowHitRate);
        dram_util.push_back(r.l2DramUtil);
        by_bench[r.benchmark][r.config] = &r;
    }
    auto mean = [](const std::vector<double> &v) {
        return ratio(sum(v), double(v.size()));
    };
    m["smcore.warp_insts"] = insts;
    m["smcore.ipc_mean"] = mean(ipc);
    m["smcore.aml_cycles_mean"] = mean(aml);
    m["cache.l1_miss_rate_mean"] = mean(l1_miss);
    m["cache.l2_miss_rate_mean"] = mean(l2_miss);
    m["cache.l1_stall_cycles"] = l1_stall;
    m["cache.l2_stall_cycles"] = l2_stall;
    m["icnt.l2_util_mean"] = mean(l2_util);
    m["dram.row_hit_rate_mean"] = mean(row_hit);
    m["dram.l2_dram_bytes"] = dram_bytes;
    m["dram.util_mean"] = mean(dram_util);

    // Mean |simulated - paper| / paper over the Table II rows present.
    std::vector<double> pinf_err, pdram_err;
    for (const auto &[bench, cfgs] : by_bench) {
        const BenchmarkProfile *p = findBenchmark(bench);
        auto base = cfgs.find(GpuConfig::baseline().name);
        auto pinf = cfgs.find(GpuConfig::perfectMem().name);
        auto pdram = cfgs.find(GpuConfig::idealDram().name);
        if (!p || base == cfgs.end() || pinf == cfgs.end() ||
            pdram == cfgs.end())
            continue;
        auto err = [](double sim, double paper) {
            return std::abs(sim - paper) / paper;
        };
        pinf_err.push_back(
            err(pinf->second->speedupOver(*base->second), p->paperPinf));
        pdram_err.push_back(
            err(pdram->second->speedupOver(*base->second), p->paperPdram));
    }
    m["pinf_err_pct"] = 100.0 * mean(pinf_err);
    m["pdram_err_pct"] = 100.0 * mean(pdram_err);
}

/** The in-process equivalent of the workload's command line. */
exp::ExperimentOptions
replayOptions(const Context &ctx, const WorkloadRun &run)
{
    exp::ExperimentOptions opts;
    opts.threads = kThreads;
    opts.shrink = run.shrink;
    if (run.w->kind == Kind::Jobs) {
        opts.benchmarks = exp::splitCsv(suiteNames());
        opts.tracePath = ctx.tracePath;
        opts.cacheDir = freshDir("replay-cache");
    } else if (run.w->kind == Kind::Warm) {
        opts.cacheDir = kWarmDir;
    }
    return opts;
}

/** Run every experiment of @p w, joined as cliMain joins them. */
void
renderAll(const Workload &w, const exp::ExperimentOptions &opts,
          std::ostream &out, Tracer *tracer)
{
    for (std::size_t i = 0; i < w.experiments.size(); ++i) {
        if (i > 0)
            out << "\n";
        std::unique_ptr<ScopedSpan> span;
        if (tracer)
            span = std::make_unique<ScopedSpan>(*tracer, "core.experiments",
                                                w.experiments[i]);
        cli::findExperiment(w.experiments[i])->run(opts, out);
    }
}

/**
 * The traced run: replay the workload in-process with span-recording
 * backends and the tick profiler on, check the tables against the
 * untraced stdout, and derive every per-layer metric.
 */
void
tracedReplay(const Context &ctx, WorkloadRun &run, double startup_ms)
{
    const Workload &w = *run.w;
    auto &m = run.layer;
    run.tracer = std::make_unique<Tracer>();
    Tracer &tracer = *run.tracer;
    const exp::ExperimentOptions opts = replayOptions(ctx, run);

    std::vector<double> resolve_ms;
    for (int i = 0; i < 5; ++i) {
        ScopedSpan span(tracer, "workloads", "selectBenchmarks");
        auto t0 = Clock::now();
        exp::selectBenchmarks(opts);
        resolve_ms.push_back(secondsSince(t0) * 1e3);
    }
    m["workloads.resolve_ms"] = quantile(resolve_ms, 0.5);

    exp::configureExecution(opts);
    SimCache &cache = SimCache::global();
    cache.clear();
    cache.setSimulationBackend(std::make_shared<TracingPool>(tracer));
    auto probe_owner = std::make_unique<SimCacheProbe>(tracer);
    SimCacheProbe &probe = *probe_owner;
    exp::setExecutionBackend(std::move(probe_owner));
    const SimSpeedTotals speed0 = simSpeedTotals();
    auto ticks0 = tickProfileTotals();
    setTickProfileEnabled(true);

    std::ostringstream text;
    const auto t0 = Clock::now();
    {
        ScopedSpan root(tracer, "replay", w.name);
        renderAll(w, opts, text, &tracer);
    }
    const double replay_s = secondsSince(t0);

    setTickProfileEnabled(false);
    const SimSpeedTotals speed1 = simSpeedTotals();
    m["core.sim_cache.sims"] = double(cache.simsRun());
    m["core.sim_cache.mem_hits"] = double(cache.hits());
    m["core.sim_cache.disk_hits"] = double(cache.diskHits());
    m["core.sim_cache.disk_stores"] = double(cache.diskStores());
    const std::vector<Consumed> consumed = probe.consumed;
    exp::setExecutionBackend(nullptr);
    cache.setSimulationBackend(nullptr);

    if (text.str() != run.reference) {
        std::cerr << "bwsim_bench: " << w.name
                  << ": traced replay differs from the untraced stdout\n";
        run.correct = false;
    }
    if (w.kind == Kind::Warm && cache.simsRun() != 0) {
        std::cerr << "bwsim_bench: " << w.name << ": replay simulated\n";
        run.correct = false;
    }

    // Layers from the spans.
    const std::vector<Span> spans = tracer.spans();
    std::vector<double> run_ms;
    double construct_s = 0.0;
    for (const auto &s : spans) {
        if (s.name == "gpu.run")
            run_ms.push_back((s.end - s.start) * 1e3);
        else if (s.name == "gpu.construct")
            construct_s += s.end - s.start;
    }
    auto layers = layerTimes(spans);
    m["gpu.sims"] = double(run_ms.size());
    m["gpu.construct_s"] = construct_s;
    m["gpu.run_s"] = sum(run_ms) / 1e3;
    m["gpu.run_p50_ms"] = quantile(run_ms, 0.5);
    m["gpu.run_p90_ms"] = quantile(run_ms, 0.9);
    m["gpu.run_max_ms"] = quantile(run_ms, 1.0);
    m["core.backend.batches"] = double(std::count_if(
        spans.begin(), spans.end(),
        [](const Span &s) { return s.name == "core.backend"; }));
    m["core.backend.batch_wall_s"] = layers["core.backend"].first;
    m["core.backend.self_s"] = layers["core.backend"].second;
    m["core.backend.pool_util"] =
        ratio(m["gpu.run_s"], m["core.backend.batch_wall_s"] * kThreads);
    m["core.backend.cpu_util"] = ratio(
        quantile(run.cpu, 0.5), quantile(run.wall, 0.5) * kThreads);
    m["core.sim_cache.self_s"] = layers["core.sim_cache"].second;
    m["core.experiments.self_s"] = layers["core.experiments"].second;

    // Simulator telemetry deltas.
    const double core_cycles = double(speed1.coreCycles - speed0.coreCycles);
    const double ticked = double(speed1.tickedEdges - speed0.tickedEdges);
    const double skipped = double(speed1.skippedEdges - speed0.skippedEdges);
    m["sim.core_cycles"] = core_cycles;
    m["sim.ticked_edges"] = ticked;
    m["sim.skipped_edges"] = skipped;
    m["sim.fused_spans"] = double(speed1.fusedSpans - speed0.fusedSpans);
    m["sim.skip_ratio"] = ratio(skipped, ticked + skipped);
    m["sim.ns_per_core_cycle"] =
        ratio(double(speed1.wallNanos - speed0.wallNanos), core_cycles);
    const std::map<std::string, std::string> domain_layer = {
        {"core", "smcore"}, {"icnt", "icnt"}, {"dram", "dram"}};
    for (const auto &[domain, layer] : domain_layer) {
        double ticks = 0.0, nanos = 0.0;
        for (const auto &d : tickProfileTotals())
            if (d.domain == domain) {
                ticks += double(d.ticks);
                nanos += double(d.nanos);
            }
        for (const auto &d : ticks0)
            if (d.domain == domain) {
                ticks -= double(d.ticks);
                nanos -= double(d.nanos);
            }
        m[layer + ".ticks"] = ticks;
        m[layer + ".tick_s"] = nanos / 1e9;
        m[layer + ".ns_per_tick"] = ratio(nanos, ticks);
    }

    // Table rendering alone: every result is now in memory.
    std::vector<double> tables_ms;
    for (int i = 0; i < 5; ++i) {
        std::ostringstream sink;
        auto t1 = Clock::now();
        renderAll(w, opts, sink, nullptr);
        tables_ms.push_back(secondsSince(t1) * 1e3);
    }
    m["core.experiments.tables_ms"] = quantile(tables_ms, 0.5);
    m["core.experiments.output_bytes"] = double(text.str().size());
    if (w.kind == Kind::Jobs)
        fs::remove_all(opts.cacheDir);

    timeDiskAndSerdes(consumed, m);
    modelMetrics(consumed, m);
    m["cli.startup_ms"] = startup_ms;
    const double untraced = quantile(run.wall, 0.5);
    m["trace.overhead_pct"] = 100.0 * ratio(replay_s - untraced, untraced);
}

/** The raw host samples behind each end-to-end metric. */
std::map<std::string, std::vector<double>>
rawSamples(const WorkloadRun &run)
{
    return {{"wall_s", run.wall},
            {"cpu_s", run.cpu},
            {"peak_rss_mb", run.rss},
            {"setup_s", run.setup}};
}

/**
 * The end-to-end metrics. Every timed rep does identical,
 * deterministic work, so their spread is host noise: times are the
 * fastest rep (setup_s: the median preparation), scaled by
 * @p host_scale to the reference host speed.
 */
std::map<std::string, double>
endToEnd(const WorkloadRun &run, double host_scale)
{
    return {{"wall_s", quantile(run.wall, 0.0) * host_scale},
            {"cpu_s", quantile(run.cpu, 0.0) * host_scale},
            {"peak_rss_mb", quantile(run.rss, 0.5)},
            {"setup_s", quantile(run.setup, 0.5) * host_scale}};
}

// --------------------------------------------------------- reporting

/** Names and units listed in BENCHMARK.json under @p key (flat
 *  objects in one array, as that file is written). */
std::vector<std::pair<std::string, std::string>>
declaredEntries(const std::string &json, const std::string &key)
{
    std::vector<std::pair<std::string, std::string>> out;
    const std::size_t k = json.find("\"" + key + "\"");
    const std::size_t open = json.find('[', k);
    const std::size_t close = json.find(']', open);
    if (k == std::string::npos || open == std::string::npos ||
        close == std::string::npos)
        return out;
    const std::string section = json.substr(open, close - open);
    static const std::regex object(R"(\{[^{}]*\})");
    static const std::regex name(R"re("name"\s*:\s*"([^"]*)")re");
    static const std::regex unit(R"re("unit"\s*:\s*"([^"]*)")re");
    for (std::sregex_iterator it(section.begin(), section.end(), object), end;
         it != end; ++it) {
        const std::string obj = it->str();
        std::smatch n, u;
        std::regex_search(obj, n, name);
        std::regex_search(obj, u, unit);
        out.push_back({n.size() > 1 ? n[1].str() : "",
                       u.size() > 1 ? u[1].str() : ""});
    }
    return out;
}

/** Smoke-mode check: the emitted names and units are exactly those
 *  BENCHMARK.json declares, and every name is well formed. */
bool
namesMatchDeclaration(const std::vector<WorkloadRun> &runs)
{
    const std::string json = slurp("BENCHMARK.json");
    using Entries = std::vector<std::pair<std::string, std::string>>;
    Entries emitted_workloads, emitted_e2e, emitted_layer;
    for (const auto &run : runs)
        emitted_workloads.push_back({run.w->name, ""});
    for (const auto &d : kEndToEnd)
        emitted_e2e.push_back({d.name, d.unit});
    for (const auto &d : kPerLayer)
        emitted_layer.push_back({d.name, d.unit});

    bool ok = true;
    static const std::regex well_formed("[A-Za-z0-9_.-]+");
    for (const auto &[key, emitted] :
         std::vector<std::pair<std::string, Entries>>{
             {"workloads", emitted_workloads},
             {"end_to_end", emitted_e2e},
             {"per_layer", emitted_layer}}) {
        const Entries declared = declaredEntries(json, key);
        const std::set<std::pair<std::string, std::string>> a(
            declared.begin(), declared.end()),
            b(emitted.begin(), emitted.end());
        if (a != b || a.size() != declared.size()) {
            std::cerr << "bwsim_bench: BENCHMARK.json " << key
                      << " do not match the emitted names\n";
            for (const auto &e : a)
                if (!b.count(e))
                    std::cerr << "  declared only: " << e.first << "\n";
            for (const auto &e : b)
                if (!a.count(e))
                    std::cerr << "  emitted only: " << e.first << "\n";
            ok = false;
        }
        for (const auto &e : emitted)
            if (!std::regex_match(e.first, well_formed)) {
                std::cerr << "bwsim_bench: bad name '" << e.first << "'\n";
                ok = false;
            }
    }
    return ok;
}

std::string
unameString()
{
    utsname un{};
    if (::uname(&un) != 0)
        return "unknown";
    return std::string(un.sysname) + " " + un.release + " " + un.machine;
}

void
writeResultFile(const std::string &path, const Context &ctx,
                const std::vector<WorkloadRun> &runs, std::uint64_t seed,
                const std::string &commit, const std::string &mode)
{
    auto summary = [](const std::vector<double> &v) {
        std::string out = csprintf(
            "{\"min\": %s, \"q1\": %s, \"median\": %s, \"q3\": %s, "
            "\"p99\": %s, \"n\": %zu, \"samples\": [",
            jsonNumber(quantile(v, 0.0)).c_str(),
            jsonNumber(quantile(v, 0.25)).c_str(),
            jsonNumber(quantile(v, 0.5)).c_str(),
            jsonNumber(quantile(v, 0.75)).c_str(),
            jsonNumber(quantile(v, 0.99)).c_str(), v.size());
        for (std::size_t k = 0; k < v.size(); ++k)
            out += (k ? ", " : "") + jsonNumber(v[k]);
        return out + "]}";
    };
    std::ofstream f(path, std::ios::trunc);
    f << "{\n  \"seed\": " << seed << ",\n  \"mode\": " << jsonString(mode)
      << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
      << ",\n  \"uname\": " << jsonString(unameString())
      << ",\n  \"commit\": " << jsonString(commit)
      << ",\n  \"host_scale\": " << jsonNumber(ctx.hostScale())
      << ",\n  \"host_probe_s\": " << summary(ctx.probes)
      << ",\n  \"workloads\": {\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const WorkloadRun &run = runs[i];
        f << "    " << jsonString(run.w->name) << ": {\n"
          << "      \"shrink\": " << run.shrink
          << ", \"correct\": " << (run.correct ? "true" : "false")
          << ", \"attempted\": " << run.attempted
          << ", \"failed\": " << run.failed << ",\n"
          << "      \"host_samples\": {";
        const auto raw = rawSamples(run);
        const auto e2e = endToEnd(run, ctx.hostScale());
        for (std::size_t j = 0; j < kEndToEnd.size(); ++j)
            f << (j ? ",\n" : "\n") << "        "
              << jsonString(kEndToEnd[j].name) << ": "
              << summary(raw.at(kEndToEnd[j].name));
        f << "\n      },\n      \"end_to_end\": {";
        for (std::size_t j = 0; j < kEndToEnd.size(); ++j)
            f << (j ? ",\n" : "\n") << "        "
              << jsonString(kEndToEnd[j].name)
              << ": {\"unit\": " << jsonString(kEndToEnd[j].unit)
              << ", \"value\": "
              << jsonNumber(e2e.at(kEndToEnd[j].name)) << "}";
        f << "\n      },\n      \"per_layer\": {";
        bool first = true;
        for (const auto &d : kPerLayer) {
            auto it = run.layer.find(d.name);
            if (it == run.layer.end())
                continue;
            f << (first ? "\n" : ",\n") << "        " << jsonString(d.name)
              << ": {\"unit\": " << jsonString(d.unit)
              << ", \"value\": " << jsonNumber(it->second) << "}";
            first = false;
        }
        f << "\n      }\n    }" << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    f << "  }\n}\n";
}

struct Args
{
    std::string bwsim;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string out = kOutDir + "/result.json";
    std::string commit = "unknown";
    bool smoke = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "bwsim_bench: " << why
              << "\nusage: bwsim_bench --bwsim PATH [--workload NAME] "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out FILE] "
                 "[--smoke] [--commit SHA]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--bwsim") {
            a.bwsim = v;
        } else if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.out = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            usage("unknown option " + flag);
        }
        if (end && (*end != '\0' || v.empty()))
            usage("malformed number for " + flag + ": " + v);
    }
    if (a.bwsim.empty())
        usage("--bwsim is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Drop BWSIM_* settings so spawned and in-process runs see the
 *  defaults (scheduler, profiler, options from the environment). */
void
clearBwsimEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "BWSIM_", 6) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const auto &n : names)
        ::unsetenv(n.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    clearBwsimEnvironment();
    setQuiet(true);
    fs::create_directories(kOutDir);

    std::vector<WorkloadRun> runs;
    for (const auto &w : workloads()) {
        if (!args.workload.empty() && w.name != args.workload)
            continue;
        WorkloadRun run;
        run.w = &w;
        run.shrink = args.smoke ? kSmallShrink : w.shrink;
        runs.push_back(std::move(run));
    }
    if (runs.empty())
        usage("unknown workload '" + args.workload + "'");

    const bool single = !args.workload.empty();
    Plan plan{5, std::numeric_limits<double>::infinity(), 400};
    if (args.smoke)
        plan = {1, plan.seconds, 100};
    else if (single)
        plan = {INT_MAX, args.seconds, 1};

    Context ctx;
    ctx.bwsim = args.bwsim;
    ctx.tracePath = writeSeededTrace(args.seed);

    for (auto &run : runs)
        run.correct = passesGate(ctx, *run.w);
    for (auto &run : runs)
        for (int i = 0; i < kSetupReps; ++i)
            run.setup.push_back(setUpOnce(ctx, run));

    // Closed loop, reps interleaved round-robin across workloads so
    // host drift hits every workload alike; host-speed probes sit
    // between reps.
    const auto start = Clock::now();
    auto last_probe = start;
    for (int round = 0;
         round < plan.rounds && secondsSince(start) < plan.seconds; ++round)
        for (auto &run : runs)
            for (int b = 0; b < (run.w->kind == Kind::Warm ? plan.warmBlock
                                                           : 1);
                 ++b) {
                invokeTimed(ctx, run);
                if (ctx.probes.empty() ||
                    secondsSince(last_probe) >= kProbeEverySec) {
                    ctx.probes.push_back(hostProbe());
                    last_probe = Clock::now();
                }
            }

    const bool traced = !single || args.trace;
    if (traced) {
        const double startup = startupMs(ctx);
        for (auto &run : runs)
            tracedReplay(ctx, run, startup);
    }
    fs::remove_all(kWarmDir);

    for (auto &run : runs) {
        run.correct = run.correct && run.failed == 0 && !run.wall.empty();
        if (run.tracer)
            writeChromeTrace(kOutDir + "/" + run.w->name + ".trace.json",
                             run.w->name, run.tracer->spans());
    }
    writeResultFile(args.out, ctx, runs, args.seed, args.commit,
                    args.smoke ? "smoke" : single ? "workload" : "full");

    // One line per metric: <workload> <metric> <value> <unit>.
    bool all_correct = true;
    for (const auto &run : runs) {
        all_correct = all_correct && run.correct;
        const auto e2e = endToEnd(run, ctx.hostScale());
        if (!single || !args.trace)
            for (const auto &d : kEndToEnd)
                std::cout << run.w->name << " " << d.name << " "
                          << jsonNumber(e2e.at(d.name)) << " " << d.unit
                          << "\n";
        if (traced)
            for (const auto &d : kPerLayer)
                std::cout << run.w->name << " " << d.name << " "
                          << jsonNumber(run.layer.at(d.name)) << " "
                          << d.unit << "\n";
    }

    if (args.smoke && !namesMatchDeclaration(runs))
        all_correct = false;

    if (single) {
        const WorkloadRun &run = runs.front();
        std::ostringstream m;
        bool first = true;
        auto add = [&](const MetricDef &d, double v) {
            m << (first ? "" : ", ") << jsonString(d.name)
              << ": {\"value\": " << jsonNumber(v)
              << ", \"unit\": " << jsonString(d.unit) << "}";
            first = false;
        };
        const auto e2e = endToEnd(run, ctx.hostScale());
        if (args.trace)
            for (const auto &d : kPerLayer)
                add(d, run.layer.at(d.name));
        else
            for (const auto &d : kEndToEnd)
                add(d, e2e.at(d.name));
        std::cout << "{\"correct\": " << (run.correct ? "true" : "false")
                  << ", \"attempted\": " << run.attempted
                  << ", \"failed\": " << run.failed << ", \"metrics\": {"
                  << m.str() << "}}" << std::endl;
    } else {
        std::cout << "result written to " << args.out << std::endl;
    }
    return all_correct ? 0 : 1;
}
