#include "cli/cli.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "common/log.hh"
#include "core/cost_model.hh"
#include "core/dse.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "sim/tick_profile.hh"
#include "stats/table.hh"
#include "workloads/trace_source.hh"

#ifdef __unix__
#include <sys/utsname.h>
#endif

namespace bwsim::cli
{

namespace
{

/** Ceiling on --jobs: each job is one forked child process. */
constexpr int kMaxJobs = 256;

/**
 * Format-aware emitters: in text mode every byte matches the legacy
 * reports; in csv/tsv mode tables become machine-readable grids,
 * section headings become '#' comment lines, and prose notes are
 * dropped so the output can be diffed and plotted directly. In json
 * mode each table is one single-line JSON object (valid JSON Lines
 * across tables) and headings/notes are dropped entirely.
 */
void
heading(const exp::ExperimentOptions &opts, std::ostream &os,
        const std::string &line)
{
    if (opts.format == exp::TableFormat::Text) {
        os << line << "\n";
        return;
    }
    if (opts.format == exp::TableFormat::Json)
        return;
    std::size_t first = line.find_first_not_of('\n');
    os << "# " << (first == std::string::npos ? line : line.substr(first))
       << "\n";
}

void
emit(const exp::ExperimentOptions &opts, std::ostream &os,
     const stats::TextTable &t)
{
    switch (opts.format) {
      case exp::TableFormat::Csv:
        t.printCsv(os);
        break;
      case exp::TableFormat::Tsv:
        t.printTsv(os);
        break;
      case exp::TableFormat::Json:
        t.printJson(os);
        break;
      default:
        t.print(os);
        break;
    }
}

void
note(const exp::ExperimentOptions &opts, std::ostream &os,
     const std::string &text)
{
    if (opts.format == exp::TableFormat::Text)
        os << text;
}

void
runFig1(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 1: issue stalls and memory latencies ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig1StallsAndLatencies(base).table);
    note(opts, os, "\npaper averages: stall 62%, L2-AHL 303, AML 452\n");
}

void
runFig3(const exp::ExperimentOptions &opts, std::ostream &os)
{
    exp::ExperimentOptions o = opts;
    if (o.benchmarks.empty())
        o.benchmarks = exp::fig3DefaultBenchmarks();
    heading(opts, os, "=== Fig. 3: IPC vs. fixed L1 miss latency ===");
    auto t = exp::fig3LatencySweep(o, exp::fig3DefaultLatencies());
    emit(opts, os, t.table);
    note(opts, os,
         "\n(each column: all L1 misses returned after that many "
         "core cycles;\n value = speedup over the baseline "
         "memory system)\n");
}

void
runFig4(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 4: L2 access queue occupancy ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig4L2QueueOccupancy(base).table);
    note(opts, os, "\npaper: average 100%-full share is 0.46\n");
}

void
runFig5(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 5: DRAM access queue occupancy ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig5DramQueueOccupancy(base).table);
    note(opts, os, "\npaper: average 100%-full share is 0.39\n");
}

void
runFig6(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os,
            "=== Fig. 6: structural hazard at the L1 MSHRs (6-cycle miss, "
            "4-cycle ALU op) ===");
    heading(opts, os, "\nMSHR size: 2 (structural hazard at I3)");
    emit(opts, os, exp::fig6StructuralHazard(2));
    heading(opts, os, "\nMSHR size: 2+ (no structural limitation)");
    emit(opts, os, exp::fig6StructuralHazard(8));
    note(opts, os,
         "\nWith 2 MSHRs, I3 blocks the pipeline until the first fill\n"
         "frees an entry: the I4 hit and the independent multiply are\n"
         "serialized behind the misses (higher hit latency, restricted\n"
         "parallelism). With enough MSHRs every instruction issues\n"
         "back to back -- exactly the paper's Fig. 6 contrast.\n");
}

void
runFig7(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 7: issue-stall distribution (%) ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig7IssueStallDistribution(base).table);
    note(opts, os,
         "\npaper averages: data-MEM 15, data-ALU 5.5, str-MEM 71,"
         " str-ALU 0.5, fetch 8\n");
}

void
runFig8(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 8: L2 stall distribution (%) ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig8L2StallDistribution(base).table);
    note(opts, os,
         "\npaper averages: bp-ICNT 42, port 12, cache 8, mshr 3, "
         "bp-DRAM 35\n");
}

void
runFig9(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 9: L1 stall distribution (%) ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::fig9L1StallDistribution(base).table);
    note(opts, os, "\npaper averages: cache 11, mshr 41, bp-L2 48\n");
}

void
runFig10(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 10: 4x bandwidth scaling (speedup) ===");
    auto t = exp::fig10DseScaling(opts);
    emit(opts, os, t.table);
    note(opts, os,
         "\npaper averages: L1 1.04, L2 1.59, DRAM 1.11, "
         "L1+L2 1.69, L2+DRAM 1.76, All 1.90\n");
}

void
runFig11(const exp::ExperimentOptions &opts, std::ostream &os)
{
    exp::ExperimentOptions o = opts;
    if (o.benchmarks.empty())
        o.benchmarks = exp::fig11DefaultBenchmarks();
    heading(opts, os, "=== Fig. 11: core-frequency sweep ===");
    auto t = exp::fig11FrequencySweep(o, exp::fig11DefaultFrequencies());
    emit(opts, os, t.table);
    note(opts, os,
         "\n(simulated stand-in for the paper's real-GPU "
         "experiment)\n");
}

void
runFig12(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Fig. 12: cost-effective configurations ===");
    auto t = exp::fig12CostEffective(opts);
    emit(opts, os, t.table);
    note(opts, os,
         "\npaper averages: 16+48 1.234, 16+68 1.29, 32+52 1.257, "
         "HBM 1.11\n");
}

void
runTab1(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Table I: baseline architecture parameters ===");
    emit(opts, os, exp::tab1BaselineConfig());
}

void
runTab2(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Table II: speedup bounds (P-inf / P-DRAM) ===");
    auto t = exp::tab2SpeedupBounds(opts);
    emit(opts, os, t.table);
    note(opts, os, "\npaper: P-inf AVG 2.37, P-DRAM AVG 1.15\n");
}

void
runTab3(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== Table III: consolidated design space ===");
    emit(opts, os, exp::tab3DesignSpace());
}

void
runSec4(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os, "=== §IV-B1: DRAM bandwidth efficiency ===");
    auto base = exp::baselineResults(opts);
    emit(opts, os, exp::sec4DramEfficiency(base).table);
    note(opts, os, "\npaper: average 41%, max 65% (stencil)\n");
}

void
runSec6(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os,
            "=== Sec. VI: per-level bandwidth utilization under the "
            "mitigations ===");
    emit(opts, os, exp::sec6BandwidthUtilization(opts).table);
    heading(opts, os,
            "\nSec. VI: mitigation speedups over baseline");
    emit(opts, os, exp::sec6MitigationSpeedups(opts).table);
    note(opts, os,
         "\n(L1-bypass: read misses allocate nothing and fetch only "
         "the demand;\n L2-sectored: 32B-sector data movement below "
         "the L1s;\n L2-decoupled: 24 L2 banks on a bank-first "
         "interleave, 6 DRAM partitions)\n");
}

void
runSec7(const exp::ExperimentOptions &opts, std::ostream &os)
{
    heading(opts, os,
            "=== §VII: area overhead of cost-effective configs ===");
    auto t = exp::sec7AreaOverhead();
    emit(opts, os, t.table);

    heading(opts, os, "\nStorage breakdown for 16+48:");
    AreaReport rep = AreaModel::delta(GpuConfig::baseline(),
                                      GpuConfig::costEffective16_48());
    stats::TextTable bt({"structure", "delta-entries", "instances",
                         "entry-bytes", "KB"});
    for (const auto &item : rep.items) {
        bt.newRow().add(item.structure);
        bt.addInt(item.entriesDelta);
        bt.addInt(item.instances);
        bt.addInt(item.entryBytes);
        bt.addNum(item.totalKB, 2);
    }
    emit(opts, os, bt);
    note(opts, os,
         "\npaper: 94 KB storage, 7.48 mm^2, 1.1% die overhead; "
         "with +20B wires 1.6%\n");
}

void
runAblation(const exp::ExperimentOptions &opts, std::ostream &os)
{
    exp::ExperimentOptions o = opts;
    if (o.benchmarks.empty())
        o.benchmarks = {"mm", "lbm", "sc"};
    auto profiles = exp::selectBenchmarks(o);

    struct Knob
    {
        const char *name;
        const char *type; // the paper's '=' / '+' classification
        GpuConfig cfg;
    };
    std::vector<Knob> knobs;
    auto add = [&knobs](const char *name, const char *type, auto mutate) {
        GpuConfig c = GpuConfig::baseline();
        c.name = name;
        mutate(c);
        knobs.push_back({name, type, c});
    };

    add("DRAM sched queue 4x", "=",
        [](GpuConfig &c) { c.dramSchedQueue *= 4; });
    add("DRAM banks 4x", "=", [](GpuConfig &c) { c.dramBanks *= 4; });
    add("DRAM bus 4x", "+",
        [](GpuConfig &c) { c.dramBusBytesPerCycle *= 4; });
    add("L2 miss queue 4x", "=",
        [](GpuConfig &c) { c.l2MissQueue *= 4; });
    add("L2 resp queue 4x", "=",
        [](GpuConfig &c) { c.l2RespQueue *= 4; });
    add("L2 MSHR 4x", "=", [](GpuConfig &c) { c.l2MshrEntries *= 4; });
    add("L2 access queue 4x", "=",
        [](GpuConfig &c) { c.l2AccessQueue *= 4; });
    add("L2 port 4x", "+", [](GpuConfig &c) { c.l2PortBytes *= 4; });
    add("Flits 4x (128+128)", "+", [](GpuConfig &c) {
        c.reqFlitBytes *= 4;
        c.replyFlitBytes *= 4;
    });
    add("L2 banks 4x", "+",
        [](GpuConfig &c) { c.l2BanksPerPartition *= 4; });
    add("L1 miss queue 4x", "=",
        [](GpuConfig &c) { c.l1dMissQueue *= 4; });
    add("L1 MSHR 4x", "=", [](GpuConfig &c) { c.l1dMshrEntries *= 4; });
    add("Mem pipeline 4x", "=",
        [](GpuConfig &c) { c.memPipelineWidth *= 4; });

    std::vector<GpuConfig> configs{GpuConfig::baseline()};
    for (const auto &k : knobs)
        configs.push_back(k.cfg);
    heading(opts, os,
            csprintf("=== Ablation: each Table III knob alone at 4x "
                     "(%zu sims) ===",
                     configs.size() * profiles.size()));
    // Config-major: the result of profile b on knob k is at
    // [(1 + k) * n + b], its baseline at [b].
    const auto results = exp::runConfigs(profiles, configs, o.threads);

    std::vector<std::string> headers{"knob", "type"};
    for (const auto &p : profiles)
        headers.push_back(p.name());
    stats::TextTable t(headers);
    const std::size_t n = profiles.size();
    for (std::size_t k = 0; k < knobs.size(); ++k) {
        t.newRow().add(knobs[k].name).add(knobs[k].type);
        for (std::size_t b = 0; b < n; ++b)
            t.addNum(results[(1 + k) * n + b].speedupOver(results[b]), 2);
    }
    emit(opts, os, t);
    note(opts, os,
         "\nNo single knob recovers the grouped Fig. 10 gains: "
         "the bottleneck\nmoves to the next unscaled resource, "
         "the paper's synergy argument.\n");
}

void
printUsage(std::ostream &os)
{
    os << "usage: bwsim [options] <experiment>...\n"
          "\n"
          "options:\n"
          "  --list            list registered experiments and exit\n"
          "  --benches=A,B,..  benchmark subset: paper abbreviations\n"
          "                    and/or generator probes\n"
          "                    pchase[:REGION[:INSTS]] (pointer-chase\n"
          "                    latency) and stride[:STRIDE[:REGION]]\n"
          "                    (bandwidth sweep); sizes take k/m/g\n"
          "  --trace=FILE      replay a memory trace (text 'type addr'\n"
          "                    lines or `bwsim trace pack` binary) as\n"
          "                    the workload; cached by content hash\n"
          "  --threads=N       host threads for the parallel runner\n"
          "  --shrink=K        divide workload size by K (quick runs)\n"
          "  --format=F        table output: text (default), csv, tsv,\n"
          "                    json (one JSON object per table; JSON\n"
          "                    Lines across tables)\n"
          "  --dump-stats      simulate the selected benchmarks on one\n"
          "                    config (--config=) and print the full\n"
          "                    per-component statistics tree instead\n"
          "                    of experiment tables\n"
          "  --config=NAME     config preset for --dump-stats:\n"
          "                    baseline (default), L1, L2, DRAM,\n"
          "                    L1+L2, L2+DRAM, All, HBM, 16+48, 16+68,\n"
          "                    32+52, L1-bypass, L2-sectored,\n"
          "                    L2-decoupled, P-inf, P-DRAM, fixed-<N>\n"
          "  --cache-dir=DIR   persistent SimCache tier: warm\n"
          "                    (profile, config) pairs load from DIR\n"
          "                    instead of re-simulating\n"
          "  --jobs=N          fork up to N (<= 256) child processes\n"
          "                    per simulation batch instead of using\n"
          "                    threads; results come back over pipes\n"
          "                    and only this process uses --cache-dir\n"
          "  --exec-stats      print cache/backend counters and the\n"
          "                    simulation-speed report (core-cycles,\n"
          "                    wall seconds, cycles/sec, ticked clock\n"
          "                    edges, slept SM/L2-bank/DRAM-channel\n"
          "                    ticks) to stderr\n"
          "  --profile-ticks   time every executed clock-domain tick:\n"
          "                    per-domain cost histograms appear as a\n"
          "                    'tick_profile' group in --dump-stats\n"
          "                    trees and totals in the --exec-stats\n"
          "                    epilogue (also BWSIM_PROFILE_TICKS=1);\n"
          "                    simulated results are unchanged\n"
          "  --scheduler=M     clock scheduler: skip (default; each\n"
          "                    SM, L2 bank and DRAM channel sleeps\n"
          "                    on its own horizon) or lockstep (all\n"
          "                    tick every edge); results are\n"
          "                    bit-identical either way\n"
          "  --perf-out=FILE   where `bwsim perf` writes its JSON\n"
          "                    report (default BENCH_fig10.json)\n"
          "  --help            this message\n"
          "\n"
          "Subcommands: `bwsim trace pack IN OUT` converts a trace to\n"
          "the compact binary encoding (same content hash, so warm\n"
          "caches stay warm) and `bwsim trace info FILE` prints its\n"
          "records, content hash and workload key.\n"
          "\n"
          "As well as experiments, the name `perf` runs the pinned\n"
          "perf-benchmark harness: a shrunk Fig. 10 mini-sweep plus a\n"
          "latency-bound probe, each timed under both schedulers, with\n"
          "machine info and per-profile simulation rates written to\n"
          "--perf-out as JSON.\n"
          "\n"
          "Options may also come from BWSIM_BENCHES / BWSIM_THREADS /\n"
          "BWSIM_SHRINK / BWSIM_CACHE_DIR; flags win. Several\n"
          "experiments in one invocation share simulations through\n"
          "the SimCache; with --cache-dir they also share them across\n"
          "invocations.\n";
}

void
printList(std::ostream &os)
{
    stats::TextTable t({"experiment", "description"});
    for (const auto &e : experimentRegistry())
        t.newRow().add(e.name).add(e.title);
    t.print(os);
}

/**
 * The --dump-stats mode: simulate each selected benchmark on one
 * config preset and print the full statistics tree -- every counter
 * of every component, named by its position in the hierarchy
 * (gpu.core3.l1d.accesses, gpu.part0.dram.activates, ...).
 */
int
runDumpStats(const exp::ExperimentOptions &opts,
             const std::string &config_name, std::ostream &out,
             std::ostream &err)
{
    GpuConfig cfg;
    if (!findConfigPreset(config_name, cfg)) {
        err << "bwsim: unknown --config '" << config_name
            << "'; expected one of:";
        for (const auto &n : configPresetNames())
            err << " " << n;
        err << "\n";
        return 1;
    }
    auto profiles = exp::selectBenchmarks(opts);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (i > 0)
            out << "\n";
        Gpu gpu(cfg, profiles[i]);
        gpu.run();
        out << "# stats: benchmark=" << profiles[i].name()
            << " config=" << cfg.name << "\n";
        gpu.dumpStats(out);
    }
    return 0;
}

/**
 * The --exec-stats epilogue: cache/backend counters, the
 * simulation-speed report and (when --profile-ticks is on) the
 * per-domain tick-cost totals. One helper so every exit path that
 * simulated something -- experiment tables and --dump-stats alike --
 * prints the same report. backend= names what simulated the cache
 * misses: the ForkBackend runExperiments() installs for --jobs, else
 * the SimCache's default ThreadedBackend.
 */
void
printExecStats(const exp::ExperimentOptions &opts, std::ostream &err)
{
    const SimCache &cache = SimCache::global();
    err << csprintf(
        "bwsim: exec stats: sims=%llu mem-hits=%llu disk-hits=%llu "
        "disk-stores=%llu backend=%s\n",
        static_cast<unsigned long long>(cache.simsRun()),
        static_cast<unsigned long long>(cache.hits()),
        static_cast<unsigned long long>(cache.diskHits()),
        static_cast<unsigned long long>(cache.diskStores()),
        opts.jobs > 1 ? "fork" : "threaded");
    const SimSpeedTotals speed = simSpeedTotals();
    err << csprintf(
        "bwsim: sim speed: scheduler=%s runs=%llu "
        "core-cycles=%llu wall=%.3fs cycles/sec=%.4g "
        "ticked-edges=%llu sm-slept=%llu l2-slept=%llu "
        "dram-slept=%llu\n",
        schedulerModeName(schedulerMode()),
        static_cast<unsigned long long>(speed.runs),
        static_cast<unsigned long long>(speed.coreCycles),
        double(speed.wallNanos) / 1e9, speed.cyclesPerSec(),
        static_cast<unsigned long long>(speed.tickedEdges),
        static_cast<unsigned long long>(speed.sleptCoreCycles),
        static_cast<unsigned long long>(speed.sleptL2Ticks),
        static_cast<unsigned long long>(speed.sleptDramTicks));
    if (tickProfileEnabled()) {
        for (const auto &d : tickProfileTotals()) {
            err << csprintf(
                "bwsim: tick profile: domain=%s ticks=%llu "
                "wall=%.3fs avg-ns-per-tick=%.1f\n",
                d.domain.c_str(),
                static_cast<unsigned long long>(d.ticks),
                double(d.nanos) / 1e9, d.avgNanos());
        }
    }
}

/** JSON string escaping for the perf report (ASCII-safe). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** One (workload, config) pair timed under both schedulers. */
struct PerfCase
{
    std::string label;
    WorkloadSpec profile;
    GpuConfig config;
    bool latencyProbe = false;
    /** Coverage case (congested or ideal hierarchy), excluded from
     *  the fig10 aggregate. */
    bool coverageOnly = false;

    std::uint64_t coreCycles = 0;
    double lockstepSec = 0.0;
    double skipSec = 0.0;
    /** Per-rep lockstep/skip wall-time ratios (the reps interleave the
     *  two schedulers, so each ratio pairs adjacent-in-time runs). */
    std::vector<double> ratios;
    std::uint64_t tickedEdges = 0;
    std::uint64_t sleptCoreCycles = 0;
    std::uint64_t sleptL2Ticks = 0;
    std::uint64_t sleptDramTicks = 0;

    /**
     * Median of the paired per-rep ratios: machine-speed drift that
     * spans several consecutive runs skews a best-of-N quotient but
     * cancels inside each adjacent pair, so the median is the stable
     * cross-commit metric. Falls back to the best-of quotient when no
     * pairs were recorded.
     */
    double
    speedup() const
    {
        if (!ratios.empty()) {
            std::vector<double> r = ratios;
            std::sort(r.begin(), r.end());
            std::size_t n = r.size();
            return n % 2 ? r[n / 2] : 0.5 * (r[n / 2 - 1] + r[n / 2]);
        }
        return skipSec > 0.0 ? lockstepSec / skipSec : 0.0;
    }
};

/**
 * Time one fresh simulation of @p pc under @p mode, returning the
 * wall seconds and filling the cycle/edge counters from the run's
 * process-global telemetry delta.
 */
double
timeOneRun(PerfCase &pc, SchedulerMode mode)
{
    setSchedulerMode(mode);
    const SimSpeedTotals before = simSpeedTotals();
    Gpu gpu(pc.config, pc.profile);
    const auto t0 = std::chrono::steady_clock::now();
    SimResult r = gpu.run();
    const auto t1 = std::chrono::steady_clock::now();
    const SimSpeedTotals after = simSpeedTotals();
    pc.coreCycles = r.coreCycles;
    if (mode == SchedulerMode::Skip) {
        pc.tickedEdges = after.tickedEdges - before.tickedEdges;
        pc.sleptCoreCycles =
            after.sleptCoreCycles - before.sleptCoreCycles;
        pc.sleptL2Ticks = after.sleptL2Ticks - before.sleptL2Ticks;
        pc.sleptDramTicks = after.sleptDramTicks - before.sleptDramTicks;
    }
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * The `bwsim perf` harness: a pinned mini-sweep (three Fig. 10
 * benchmarks at shrink=8 on the baseline and fully-scaled configs,
 * plus shrunk bfs as the congested-backpressure coverage case and
 * shrunk nn on fixed-200 as the ideal-hierarchy one)
 * plus the tiny-latency probe, each simulated under the lockstep and
 * skip schedulers with per-profile wall time, simulation rate, edge
 * and slept-tick counts written as JSON to @p out_path. Runs are
 * best-of-@c kReps single-threaded simulations, so the numbers are
 * comparable across commits on the same machine.
 */
int
runPerf(const std::string &out_path, std::ostream &out, std::ostream &err)
{
    constexpr int kReps = 9;
    constexpr int kShrink = 8;
    const SchedulerMode saved_mode = schedulerMode();

    std::vector<PerfCase> cases;
    for (const char *bench : {"mm", "lbm", "sc"}) {
        const BenchmarkProfile *p = findBenchmark(bench);
        bwsim_assert(p, "perf harness bench '%s' missing", bench);
        for (const char *cfg_name : {"baseline", "All"}) {
            GpuConfig cfg;
            bool ok = findConfigPreset(cfg_name, cfg);
            bwsim_assert(ok, "perf harness config '%s' missing",
                         cfg_name);
            PerfCase pc;
            pc.label = csprintf("fig10:%s/%s", bench, cfg_name);
            pc.profile = shrinkProfile(*p, kShrink);
            pc.config = cfg;
            cases.push_back(std::move(pc));
        }
    }
    // The congested coverage case: shrunk bfs exercises crossbar
    // backpressure and the DRAM bus-sleep path. Labelled "congested:"
    // and kept out of the fig10 aggregate so the summary numbers stay
    // comparable across commits.
    {
        const BenchmarkProfile *p = findBenchmark("bfs");
        bwsim_assert(p, "perf harness bench 'bfs' missing");
        for (const char *cfg_name : {"baseline", "All"}) {
            GpuConfig cfg;
            bool ok = findConfigPreset(cfg_name, cfg);
            bwsim_assert(ok, "perf harness config '%s' missing",
                         cfg_name);
            PerfCase pc;
            pc.label = csprintf("congested:bfs/%s", cfg_name);
            pc.profile = shrinkProfile(*p, kShrink);
            pc.config = cfg;
            pc.coverageOnly = true;
            cases.push_back(std::move(pc));
        }
    }
    // The ideal-hierarchy coverage case: a Fig. 3 fixed-latency run,
    // clocked on the core domain alone. Labelled "ideal:" and kept out
    // of the fig10 aggregate like the congested rows.
    {
        const BenchmarkProfile *p = findBenchmark("nn");
        bwsim_assert(p, "perf harness bench 'nn' missing");
        GpuConfig cfg;
        bool ok = findConfigPreset("fixed-200", cfg);
        bwsim_assert(ok, "perf harness config 'fixed-200' missing");
        PerfCase pc;
        pc.label = "ideal:nn/fixed-200";
        pc.profile = shrinkProfile(*p, kShrink);
        pc.config = cfg;
        pc.coverageOnly = true;
        cases.push_back(std::move(pc));
    }
    {
        PerfCase pc;
        pc.label = "latency-probe/baseline";
        pc.profile = makeTestProfile("tiny-latency");
        pc.config = GpuConfig::baseline();
        pc.latencyProbe = true;
        cases.push_back(std::move(pc));
    }

    for (auto &pc : cases) {
        for (int rep = 0; rep < kReps; ++rep) {
            double ls = timeOneRun(pc, SchedulerMode::Lockstep);
            double sk = timeOneRun(pc, SchedulerMode::Skip);
            pc.lockstepSec = rep ? std::min(pc.lockstepSec, ls) : ls;
            pc.skipSec = rep ? std::min(pc.skipSec, sk) : sk;
            if (sk > 0.0)
                pc.ratios.push_back(ls / sk);
        }
        err << csprintf(
            "bwsim: perf: %-24s %9llu cycles  lockstep %.4fs  "
            "skip %.4fs  speedup %.2fx\n",
            pc.label.c_str(),
            static_cast<unsigned long long>(pc.coreCycles),
            pc.lockstepSec, pc.skipSec, pc.speedup());
    }
    setSchedulerMode(saved_mode);

    // Aggregate rates over the fig10 mini-sweep (sum of cycles over
    // sum of seconds), plus the latency probe on its own.
    double fig10_ls_sec = 0.0, fig10_sk_sec = 0.0;
    std::uint64_t fig10_cycles = 0;
    double probe_speedup = 0.0;
    for (const auto &pc : cases) {
        if (pc.latencyProbe) {
            probe_speedup = pc.speedup();
        } else if (!pc.coverageOnly) {
            fig10_ls_sec += pc.lockstepSec;
            fig10_sk_sec += pc.skipSec;
            fig10_cycles += pc.coreCycles;
        }
    }
    const double fig10_speedup =
        fig10_sk_sec > 0.0 ? fig10_ls_sec / fig10_sk_sec : 0.0;

    const char *commit = std::getenv("BWSIM_COMMIT");
    if (!commit || !*commit)
        commit = std::getenv("GITHUB_SHA");
    if (!commit || !*commit)
        commit = "unknown";

    std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
    if (!f) {
        err << "bwsim: cannot write perf report to '" << out_path
            << "'\n";
        return 1;
    }
    f << "{\n";
    f << "  \"schema\": 1,\n";
    f << "  \"generated_by\": \"bwsim perf\",\n";
    f << "  \"commit\": \"" << jsonEscape(commit) << "\",\n";
#ifdef __unix__
    {
        struct utsname un;
        if (::uname(&un) == 0) {
            f << "  \"host\": {\"sysname\": \"" << jsonEscape(un.sysname)
              << "\", \"release\": \"" << jsonEscape(un.release)
              << "\", \"machine\": \"" << jsonEscape(un.machine)
              << "\", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << "},\n";
        }
    }
#endif
    f << "  \"reps\": " << kReps << ",\n";
    f << "  \"shrink\": " << kShrink << ",\n";
    f << "  \"profiles\": [\n";
    // Below this wall time a cycles/sec quotient is clock-resolution
    // noise (or a division by ~zero); report rate 0 instead so
    // downstream comparisons (scripts/perf_check.py) skip the row
    // rather than ingest an absurd or non-finite rate.
    constexpr double kMinWallSec = 1e-6;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const PerfCase &pc = cases[i];
        auto rate = [&pc, &err, kMinWallSec](double sec) {
            if (sec < kMinWallSec) {
                err << csprintf(
                    "bwsim: perf: warning: '%s' finished in %.2e s "
                    "(below the %.0e s floor); reporting rate 0\n",
                    pc.label.c_str(), sec, kMinWallSec);
                return 0.0;
            }
            return static_cast<double>(pc.coreCycles) / sec;
        };
        f << csprintf(
            "    {\"name\": \"%s\", \"workload_key\": \"%s\", "
            "\"core_cycles\": %llu, "
            "\"lockstep\": {\"wall_sec\": %.6f, \"cycles_per_sec\": "
            "%.1f}, \"skip\": {\"wall_sec\": %.6f, \"cycles_per_sec\": "
            "%.1f, \"ticked_edges\": %llu, "
            "\"sm_slept\": %llu, \"l2_slept\": %llu, "
            "\"dram_slept\": %llu}, \"speedup\": %.3f}%s\n",
            jsonEscape(pc.label).c_str(),
            workloadKeyTag(pc.profile).c_str(),
            static_cast<unsigned long long>(pc.coreCycles),
            pc.lockstepSec, rate(pc.lockstepSec), pc.skipSec,
            rate(pc.skipSec),
            static_cast<unsigned long long>(pc.tickedEdges),
            static_cast<unsigned long long>(pc.sleptCoreCycles),
            static_cast<unsigned long long>(pc.sleptL2Ticks),
            static_cast<unsigned long long>(pc.sleptDramTicks),
            pc.speedup(), i + 1 < cases.size() ? "," : "");
    }
    f << "  ],\n";
    f << csprintf("  \"summary\": {\"fig10_core_cycles\": %llu, "
                  "\"fig10_lockstep_sec\": %.6f, \"fig10_skip_sec\": "
                  "%.6f, \"fig10_speedup\": %.3f, "
                  "\"latency_probe_speedup\": %.3f}\n",
                  static_cast<unsigned long long>(fig10_cycles),
                  fig10_ls_sec, fig10_sk_sec, fig10_speedup,
                  probe_speedup);
    f << "}\n";
    f.close();

    out << csprintf("perf report written to %s (fig10 %.2fx, "
                    "latency probe %.2fx)\n",
                    out_path.c_str(), fig10_speedup, probe_speedup);
    return 0;
}

/**
 * The `bwsim trace` tool: pack converts a trace (text or already
 * binary) to the compact packed encoding; info prints its records,
 * content hash and the cache identity its replay would run under.
 * Packing never changes the content hash, so a packed trace hits
 * every cache entry its text original warmed.
 */
int
runTraceTool(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err)
{
    if (args.size() == 3 && args[0] == "pack") {
        std::string perr;
        auto trace = loadTraceFile(args[1], perr);
        if (!trace) {
            err << "bwsim: " << perr << "\n";
            return 1;
        }
        const std::string bytes = packTrace(*trace);
        std::ofstream f(args[2], std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        f.close();
        if (!f) {
            err << "bwsim: cannot write packed trace to '" << args[2]
                << "'\n";
            return 1;
        }
        out << csprintf(
            "packed %zu records (content %016llx) to %s (%zu bytes)\n",
            trace->records.size(),
            static_cast<unsigned long long>(trace->contentHash),
            args[2].c_str(), bytes.size());
        return 0;
    }
    if (args.size() == 2 && args[0] == "info") {
        std::string perr;
        auto trace = loadTraceFile(args[1], perr);
        if (!trace) {
            err << "bwsim: " << perr << "\n";
            return 1;
        }
        std::size_t loads = 0;
        for (const auto &r : trace->records)
            loads += r.op == Op::Load;
        const WorkloadSpec spec = makeTraceWorkload(trace);
        out << "trace: " << trace->sourceName << "\n";
        out << csprintf("records: %zu (%zu loads, %zu stores)\n",
                        trace->records.size(), loads,
                        trace->records.size() - loads);
        out << "cta-tagged: " << (trace->ctaTagged ? "yes" : "no")
            << "\n";
        out << csprintf("content-hash: %016llx\n",
                        static_cast<unsigned long long>(
                            trace->contentHash));
        out << csprintf("launch-shape: %d ctas x %d warps "
                        "(max %d ctas/core)\n",
                        spec.profile.numCtas, spec.profile.warpsPerCta,
                        spec.profile.maxCtasPerCore);
        out << "workload-key: " << workloadKeyTag(spec) << "\n";
        return 0;
    }
    err << "bwsim: usage: bwsim trace pack IN OUT | "
           "bwsim trace info FILE\n";
    return 1;
}

/**
 * Run @p names in order, blank-line separated. With --jobs=N every
 * simulation batch the SimCache cannot serve forks up to N children
 * (ForkBackend); the parent alone reads and writes --cache-dir.
 */
void
runExperiments(const std::vector<std::string> &names,
               const exp::ExperimentOptions &opts, std::ostream &out)
{
    exp::configureExecution(opts);
#ifdef __unix__
    if (opts.jobs > 1)
        SimCache::global().setSimulationBackend(
            std::make_shared<ForkBackend>(opts.jobs));
#endif
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            out << "\n";
        findExperiment(names[i])->run(opts, out);
    }
    SimCache::global().setSimulationBackend(nullptr);
}

} // anonymous namespace

const std::vector<Experiment> &
experimentRegistry()
{
    static const std::vector<Experiment> registry = {
        {"tab1", "Table I: baseline architecture parameters", runTab1},
        {"fig1", "Fig. 1: issue stalls and memory latencies", runFig1},
        {"tab2", "Table II: P-inf / P-DRAM speedup bounds", runTab2},
        {"fig3", "Fig. 3: IPC vs. fixed L1 miss latency", runFig3},
        {"fig4", "Fig. 4: L2 access queue occupancy", runFig4},
        {"fig5", "Fig. 5: DRAM access queue occupancy", runFig5},
        {"fig6", "Fig. 6: structural hazard of a 2-entry L1 MSHR", runFig6},
        {"sec4", "Sec. IV-B1: DRAM bandwidth efficiency", runSec4},
        {"fig7", "Fig. 7: issue-stall distribution", runFig7},
        {"fig8", "Fig. 8: L2 stall distribution", runFig8},
        {"fig9", "Fig. 9: L1 stall distribution", runFig9},
        {"sec6", "Sec. VI: hierarchy mitigations (bandwidth + speedup)",
         runSec6},
        {"tab3", "Table III: consolidated design space", runTab3},
        {"fig10", "Fig. 10: 4x bandwidth scaling", runFig10},
        {"fig11", "Fig. 11: core-frequency sweep", runFig11},
        {"fig12", "Fig. 12: cost-effective configurations", runFig12},
        {"sec7", "Sec. VII: area overhead of cost-effective configs", runSec7},
        {"ablation", "Each Table III knob alone at 4x", runAblation},
    };
    return registry;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &e : experimentRegistry())
        if (e.name == name)
            return &e;
    return nullptr;
}

int
cliMain(int argc, const char *const *argv, std::ostream &out,
        std::ostream &err)
{
    // --help / --list answer before the environment is consulted, so
    // a malformed BWSIM_* variable (fatal in fromEnv()) cannot hide
    // the usage text.
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage(out);
            return 0;
        }
        if (a == "--list") {
            printList(out);
            return 0;
        }
    }

    exp::ExperimentOptions opts = exp::ExperimentOptions::fromEnv();
    std::vector<std::string> names;
    bool exec_stats = false;
    bool dump_stats = false;
    std::string config_name = "baseline";
    bool config_flag = false;
    std::string perf_out = "BENCH_fig10.json";

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto valueOf = [&a](const char *flag) {
            return a.substr(std::string(flag).size());
        };
        auto parseIntFlag = [&err](const char *flag, const std::string &v,
                                   int &dst) {
            if (!exp::parseInt(v, dst)) {
                err << "bwsim: " << flag << " expects an integer, got '"
                    << v << "'\n";
                return false;
            }
            return true;
        };
        if (a == "--help" || a == "-h") {
            printUsage(out);
            return 0;
        } else if (a == "--list") {
            printList(out);
            return 0;
        } else if (a.rfind("--benches=", 0) == 0) {
            opts.benchmarks = exp::splitCsv(valueOf("--benches="));
        } else if (a.rfind("--trace=", 0) == 0) {
            opts.tracePath = valueOf("--trace=");
            if (opts.tracePath.empty()) {
                err << "bwsim: --trace expects a file path\n";
                return 1;
            }
        } else if (a.rfind("--threads=", 0) == 0) {
            if (!parseIntFlag("--threads", valueOf("--threads="),
                              opts.threads))
                return 1;
        } else if (a.rfind("--shrink=", 0) == 0) {
            if (!parseIntFlag("--shrink", valueOf("--shrink="),
                              opts.shrink))
                return 1;
            opts.shrink = std::max(1, opts.shrink);
        } else if (a.rfind("--format=", 0) == 0) {
            if (!exp::parseTableFormat(valueOf("--format="),
                                       opts.format)) {
                err << "bwsim: --format expects text, csv, tsv or "
                       "json, got '"
                    << valueOf("--format=") << "'\n";
                return 1;
            }
        } else if (a.rfind("--cache-dir=", 0) == 0) {
            opts.cacheDir = valueOf("--cache-dir=");
        } else if (a.rfind("--jobs=", 0) == 0) {
            if (!parseIntFlag("--jobs", valueOf("--jobs="), opts.jobs))
                return 1;
        } else if (a == "--dump-stats") {
            dump_stats = true;
        } else if (a.rfind("--config=", 0) == 0) {
            config_name = valueOf("--config=");
            config_flag = true;
        } else if (a == "--exec-stats") {
            exec_stats = true;
        } else if (a == "--profile-ticks") {
            setTickProfileEnabled(true);
        } else if (a.rfind("--scheduler=", 0) == 0) {
            SchedulerMode mode;
            if (!parseSchedulerMode(valueOf("--scheduler="), mode)) {
                err << "bwsim: --scheduler expects lockstep or skip, "
                       "got '"
                    << valueOf("--scheduler=") << "'\n";
                return 1;
            }
            setSchedulerMode(mode);
        } else if (a.rfind("--perf-out=", 0) == 0) {
            perf_out = valueOf("--perf-out=");
        } else if (!a.empty() && a[0] == '-') {
            err << "bwsim: unknown option '" << a << "'\n";
            printUsage(err);
            return 1;
        } else {
            names.push_back(a);
        }
    }

    if (opts.jobs < 1 || opts.jobs > kMaxJobs) {
        err << "bwsim: --jobs must be between 1 and " << kMaxJobs << "\n";
        return 1;
    }
#ifndef __unix__
    if (opts.jobs > 1) {
        err << "bwsim: --jobs is only supported on unix hosts\n";
        return 1;
    }
#endif

    if (config_flag && !dump_stats) {
        err << "bwsim: --config only applies to --dump-stats\n";
        return 1;
    }
    if (dump_stats) {
        if (!names.empty()) {
            err << "bwsim: --dump-stats takes no experiment names (it "
                   "dumps raw per-component stats, not figure "
                   "tables)\n";
            return 1;
        }
        if (opts.format != exp::TableFormat::Text) {
            err << "bwsim: --dump-stats prints the raw stats tree, "
                   "not tables; --format does not apply\n";
            return 1;
        }
        if (opts.jobs > 1) {
            err << "bwsim: --dump-stats simulates in-process; --jobs "
                   "does not apply\n";
            return 1;
        }
        int dump_rc = runDumpStats(opts, config_name, out, err);
        // --dump-stats simulates too: the epilogue must not be lost
        // to this early return.
        if (exec_stats)
            printExecStats(opts, err);
        return dump_rc;
    }

    if (!names.empty() && names[0] == "trace")
        return runTraceTool(
            std::vector<std::string>(names.begin() + 1, names.end()),
            out, err);

    if (std::find(names.begin(), names.end(), "perf") != names.end()) {
        if (names.size() != 1) {
            err << "bwsim: perf runs alone (it pins its own sweep)\n";
            return 1;
        }
        return runPerf(perf_out, out, err);
    }

    if (names.empty()) {
        err << "bwsim: no experiment named\n";
        printUsage(err);
        return 1;
    }
    for (const auto &n : names)
        if (!findExperiment(n)) {
            err << "bwsim: unknown experiment '" << n
                << "' (try --list)\n";
            return 1;
        }

    runExperiments(names, opts, out);
    if (exec_stats)
        printExecStats(opts, err);
    return 0;
}

} // namespace bwsim::cli
