/**
 * @file
 * bwsim CLI tests: registry completeness, --list, option parsing, and
 * parity between single-process and --jobs runs.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hh"
#include "core/sim_cache.hh"
#include "sim/sim_speed.hh"
#include "sim/tick_profile.hh"

using namespace bwsim;

namespace
{

int
runCli(std::vector<const char *> args, std::string &out_s,
       std::string &err_s)
{
    args.insert(args.begin(), "bwsim");
    std::ostringstream out, err;
    int rc = cli::cliMain(static_cast<int>(args.size()), args.data(), out,
                          err);
    out_s = out.str();
    err_s = err.str();
    return rc;
}

} // namespace

TEST(Cli, RegistryCoversEveryExperiment)
{
    const auto &reg = cli::experimentRegistry();
    // 18 experiments: figs 1/3/4/5/6/7/8/9/10/11/12, tables I-III,
    // secs IV/VI/VII, and the ablation study.
    EXPECT_EQ(reg.size(), 18u);
    for (const auto &e : reg) {
        EXPECT_FALSE(e.name.empty());
        EXPECT_FALSE(e.title.empty());
        EXPECT_TRUE(bool(e.run)) << e.name;
        EXPECT_EQ(cli::findExperiment(e.name), &e);
    }
    EXPECT_EQ(cli::findExperiment("fig2"), nullptr);
}

TEST(Cli, ListNamesEveryRegisteredExperiment)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--list"}, out, err), 0);
    for (const auto &e : cli::experimentRegistry()) {
        EXPECT_NE(out.find(e.name), std::string::npos) << e.name;
        EXPECT_NE(out.find(e.title), std::string::npos) << e.title;
    }
    EXPECT_TRUE(err.empty());
}

TEST(Cli, UnknownExperimentExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({"nosuch"}, out, err), 0);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos);
    // A bad name anywhere fails before any experiment runs.
    EXPECT_NE(runCli({"tab1", "nosuch"}, out, err), 0);
    EXPECT_EQ(out.find("Table I"), std::string::npos);
}

TEST(Cli, UnknownOptionExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({"--frobnicate", "tab1"}, out, err), 0);
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, NoExperimentExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({}, out, err), 0);
    EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(Cli, HelpExitsZero)
{
    std::string out, err;
    EXPECT_EQ(runCli({"--help"}, out, err), 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, StaticTablesRunWithoutSimulation)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1"}, out, err), 0);
    EXPECT_NE(out.find("Table I"), std::string::npos);
    ASSERT_EQ(runCli({"tab3"}, out, err), 0);
    EXPECT_NE(out.find("Table III"), std::string::npos);
    ASSERT_EQ(runCli({"sec7"}, out, err), 0);
    EXPECT_NE(out.find("area overhead"), std::string::npos);
}

namespace
{

/** The Fig. 6 schedules in @p out, one per "MSHR size" heading, each
 *  row as "<cycle> <event>"; text and tsv tables read the same. */
std::vector<std::vector<std::string>>
fig6Schedules(const std::string &out)
{
    std::vector<std::vector<std::string>> schedules;
    std::istringstream in(out);
    for (std::string line; std::getline(in, line);) {
        if (line.find("MSHR size:") != std::string::npos) {
            schedules.emplace_back();
        } else if (!schedules.empty() && !line.empty() &&
                   std::isdigit(static_cast<unsigned char>(line[0]))) {
            const std::size_t gap = line.find_first_of(" \t");
            const std::size_t cell = line.find_first_not_of(" \t", gap);
            const std::size_t end = line.find_last_not_of(' ') + 1;
            schedules.back().push_back(line.substr(0, gap) + " " +
                                       line.substr(cell, end - cell));
        }
    }
    return schedules;
}

} // namespace

TEST(Cli, Fig6ContrastsTwoAndEightMshrsWithoutSimulating)
{
    // With 2 MSHRs, I3 waits for the first fill and the I4 hit and the
    // independent I5 queue behind it; with 8, all five issue back to
    // back. Fig. 6 replays one L1, so no GPU is simulated.
    const std::vector<std::string> two_mshrs = {
        "1 I1 LD r1,[0x0100] MISS",
        "2 I2 LD r2,[0x0200] MISS",
        "7 fill 0x0100",
        "7 I3 LD r3,[0x0300] MISS",
        "8 fill 0x0200",
        "8 I4 LD r4,[0x0400] HIT (data @9)",
        "9 I5 MULT r7,r6,r5 issue (done @13)",
        "13 fill 0x0300"};
    const std::vector<std::string> eight_mshrs = {
        "1 I1 LD r1,[0x0100] MISS",
        "2 I2 LD r2,[0x0200] MISS",
        "3 I3 LD r3,[0x0300] MISS",
        "4 I4 LD r4,[0x0400] HIT (data @5)",
        "5 I5 MULT r7,r6,r5 issue (done @9)",
        "7 fill 0x0100",
        "8 fill 0x0200",
        "9 fill 0x0300"};
    for (const char *format : {"--format=text", "--format=tsv"}) {
        SimCache::global().clear();
        std::string out, err;
        ASSERT_EQ(runCli({"fig6", format, "--exec-stats"}, out, err), 0)
            << err;
        EXPECT_NE(err.find("exec stats: sims=0 "), std::string::npos)
            << err;
        const auto schedules = fig6Schedules(out);
        ASSERT_EQ(schedules.size(), 2u) << format << "\n" << out;
        EXPECT_EQ(schedules[0], two_mshrs) << format;
        EXPECT_EQ(schedules[1], eight_mshrs) << format;
    }
    SimCache::global().clear();
}

TEST(Cli, MultipleExperimentsSeparatedByBlankLine)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "tab3"}, out, err), 0);
    auto t1 = out.find("Table I");
    auto t3 = out.find("Table III");
    EXPECT_NE(t1, std::string::npos);
    EXPECT_NE(t3, std::string::npos);
    EXPECT_LT(t1, t3);
}

TEST(Cli, FormatCsvEmitsMachineReadableGrid)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab3", "--format=csv"}, out, err), 0);
    // Headings become comment lines; the grid itself is plain CSV.
    EXPECT_EQ(out.rfind("# === Table III", 0), 0u);
    EXPECT_NE(out.find("parameter,type,baseline,scaled(4x),"
                       "cost-effective\n"),
              std::string::npos);
    EXPECT_NE(out.find("DRAM scheduler queue,=,"), std::string::npos);
}

TEST(Cli, FormatTsvEmitsTabs)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--format=tsv"}, out, err), 0);
    EXPECT_NE(out.find("parameter\tvalue\n"), std::string::npos);
}

TEST(Cli, FormatTextIsDefaultAndExplicit)
{
    std::string flagged, plain, err;
    ASSERT_EQ(runCli({"tab3", "--format=text"}, flagged, err), 0);
    ASSERT_EQ(runCli({"tab3"}, plain, err), 0);
    EXPECT_EQ(flagged, plain);
}

TEST(Cli, UnknownFormatRejected)
{
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--format=xml"}, out, err), 0);
    EXPECT_NE(err.find("--format"), std::string::npos);
    // The message lists every format parseTableFormat accepts.
    for (const char *fmt : {"text", "csv", "tsv", "json"})
        EXPECT_NE(err.find(fmt), std::string::npos) << fmt;
}

TEST(Cli, FormatJsonEmitsOneObjectPerTableNoHeadings)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--format=json"}, out, err), 0);
    // No headings or notes, just the table object.
    EXPECT_EQ(out.rfind("{\"headers\":[\"parameter\",\"value\"]", 0), 0u);
    EXPECT_EQ(out.find("==="), std::string::npos);
    EXPECT_EQ(out.find('\n'), out.size() - 1); // single line

    // Several tables become JSON Lines (one object per line).
    std::string multi;
    ASSERT_EQ(runCli({"tab1", "tab3", "--format=json"}, multi, err), 0);
    std::size_t objects = 0;
    std::istringstream lines(multi);
    for (std::string line; std::getline(lines, line);)
        if (!line.empty()) {
            EXPECT_EQ(line.rfind("{\"headers\":", 0), 0u);
            ++objects;
        }
    EXPECT_EQ(objects, 2u);
}

TEST(Cli, DumpStatsOptionsValidated)
{
    std::string out, err;
    // --config only makes sense with --dump-stats.
    EXPECT_NE(runCli({"tab1", "--config=baseline"}, out, err), 0);
    EXPECT_NE(err.find("--config"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--dump-stats"}, out, err), 0);
    EXPECT_NE(err.find("--dump-stats"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--config=warp-drive"}, out, err),
              0);
    EXPECT_NE(err.find("unknown --config"), std::string::npos);
    EXPECT_NE(err.find("baseline"), std::string::npos); // lists presets

    // An overflowing fixed-<N> is an unknown preset, not an abort or
    // a silently wrapped latency.
    err.clear();
    EXPECT_NE(runCli({"--dump-stats",
                      "--config=fixed-99999999999999999999"},
                     out, err),
              0);
    EXPECT_NE(err.find("unknown --config"), std::string::npos);

    // Table- and fan-out-only flags are rejected, not ignored.
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--format=json"}, out, err), 0);
    EXPECT_NE(err.find("--format"), std::string::npos);
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--jobs=4"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);
}

TEST(Cli, DumpStatsPrintsTheTree)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--config=fixed-200"},
                     out, err),
              0);
    EXPECT_NE(out.find("# stats: benchmark=bfs config=fixed-200"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.l1d.accesses"), std::string::npos);
    // fixed-latency mode models no network or partitions.
    EXPECT_EQ(out.find("gpu.icnt."), std::string::npos);
    EXPECT_EQ(out.find("gpu.part"), std::string::npos);
}

TEST(Cli, DumpStatsStillPrintsTheExecStatsEpilogue)
{
    // Regression: the --dump-stats path used to return before the
    // --exec-stats epilogue, silently eating the flag.
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--config=fixed-200", "--exec-stats"},
                     out, err),
              0);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(err.find("bwsim: exec stats: sims="), std::string::npos);
    EXPECT_NE(err.find("bwsim: sim speed: scheduler="),
              std::string::npos);
    // Without --profile-ticks there must be no profiler lines.
    EXPECT_EQ(err.find("bwsim: tick profile:"), std::string::npos);
}

TEST(Cli, ProfileTicksAddsTheProfilerTreeAndEpilogue)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--profile-ticks", "--exec-stats"},
                     out, err),
              0);
    setTickProfileEnabled(false); // process-global; don't leak
    EXPECT_NE(out.find("gpu.tick_profile.core.ticks"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.tick_profile.dram.wall_nanos"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.tick_profile.icnt.avg_ns_per_tick"),
              std::string::npos);
    EXPECT_NE(err.find("bwsim: tick profile: domain="),
              std::string::npos);

    // The profiler must be observe-only: the rest of the tree is
    // unchanged relative to an unprofiled run.
    std::string out2, err2;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64"},
                     out2, err2),
              0);
    EXPECT_EQ(out2.find("gpu.tick_profile"), std::string::npos);
    std::istringstream is(out);
    std::string line, filtered;
    while (std::getline(is, line)) {
        if (line.rfind("gpu.tick_profile", 0) != 0)
            filtered += line + "\n";
    }
    EXPECT_EQ(filtered, out2);
}

TEST(Cli, UsageMentionsTheTickProfileFlag)
{
    std::string out, err;
    EXPECT_EQ(runCli({"--help"}, out, err), 0);
    EXPECT_NE(out.find("--profile-ticks"), std::string::npos);
}

TEST(Cli, JobsOptionsValidated)
{
    // Both bounds fail at parse time, so no case here forks anything.
    for (const char *bad : {"--jobs=0", "--jobs=257", "--jobs=-3"}) {
        std::string out, err;
        EXPECT_EQ(runCli({"tab1", bad}, out, err), 1) << bad;
        EXPECT_EQ(err, "bwsim: --jobs must be between 1 and 256\n") << bad;
        EXPECT_TRUE(out.empty()) << bad;
    }
    // The ceiling itself is accepted; tab1 simulates nothing, so
    // nothing forks.
    std::string out, err;
    EXPECT_EQ(runCli({"tab1", "--jobs=256"}, out, err), 0) << err;
}

TEST(Cli, UsageMentionsTheExecutionFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag :
         {"--cache-dir", "--jobs", "--format", "--exec-stats"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

namespace
{

/** The caching front, checking every key a batch hands it. */
class KeyProbe : public ExecutionBackend
{
  public:
    struct Counts
    {
        std::size_t specs = 0;
        std::size_t keyed = 0;
        std::size_t mismatched = 0;
    };

    explicit KeyProbe(Counts &counts) : counts(counts) {}

    std::string name() const override { return "key-probe"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads) override
    {
        for (const auto &s : specs) {
            ++counts.specs;
            if (s.key.empty())
                continue;
            ++counts.keyed;
            if (s.key != SimCache::keyOf(s.workload, s.config))
                ++counts.mismatched;
        }
        return inner.runAll(specs, threads);
    }

  private:
    Counts &counts;
    CachingBackend inner{SimCache::global()};
};

} // namespace

TEST(Cli, EveryExperimentBatchCarriesItsSimCacheKeys)
{
    // Batches build each workload and config key half once and hand
    // each spec its joined key, which SimCache then trusts: a key
    // that is not keyOf() would file results under the wrong pair.
    std::vector<const char *> args;
    for (const auto &e : cli::experimentRegistry())
        args.push_back(e.name.c_str());
    for (const char *flag : {"--benches=bfs,lbm", "--shrink=16",
                             "--threads=2"})
        args.push_back(flag);

    KeyProbe::Counts counts;
    SimCache::global().clear();
    exp::setExecutionBackend(std::make_unique<KeyProbe>(counts));
    std::string out, err;
    const int rc = runCli(args, out, err);
    exp::setExecutionBackend(nullptr);
    SimCache::global().clear();
    ASSERT_EQ(rc, 0) << err;

    EXPECT_NE(out.find("=== Ablation"), std::string::npos);
    EXPECT_GT(counts.specs, 0u);
    EXPECT_EQ(counts.keyed, counts.specs) << "a batch left keys empty";
    EXPECT_EQ(counts.mismatched, 0u);
}

#ifdef __unix__
TEST(Cli, ExecStatsNamesTheBackendThatSimulated)
{
    for (const auto &[flag, backend] :
         {std::pair{"--threads=2", "backend=threaded\n"},
          std::pair{"--jobs=2", "backend=fork\n"}}) {
        SimCache::global().clear();
        std::string out, err;
        ASSERT_EQ(runCli({"fig4", "--benches=bfs", "--shrink=16", flag,
                          "--exec-stats"},
                         out, err),
                  0)
            << err;
        EXPECT_NE(err.find("exec stats: sims=1 "), std::string::npos)
            << flag << "\n" << err;
        EXPECT_NE(err.find(backend), std::string::npos)
            << flag << "\n" << err;
    }
    SimCache::global().clear();
    exp::configureExecution(exp::ExperimentOptions{});
}

TEST(Cli, JobsMatchesTheSingleProcessRun)
{
    // --jobs=2 forks copies of this process (no re-exec), so it runs
    // inside this test binary.
    namespace fs = std::filesystem;
    const std::string root = ::testing::TempDir() + "bwsim-cli-jobs";
    fs::remove_all(root);
    fs::create_directories(root + "/tmp");
    const std::string cache = "--cache-dir=" + root + "/cache";
    const char *saved = std::getenv("TMPDIR");
    const std::string saved_val = saved ? saved : "";
    auto fig4 = [](std::vector<const char *> extra, std::string &out,
                   std::string &err) {
        std::vector<const char *> args{"fig4", "--benches=bfs,lbm",
                                       "--shrink=16", "--threads=2"};
        args.insert(args.end(), extra.begin(), extra.end());
        // A cold memory tier each time, like a fresh process.
        SimCache::global().clear();
        return runCli(args, out, err);
    };

    std::string single, err;
    ASSERT_EQ(fig4({}, single, err), 0) << err;

    // Cold: both sims run in forked children, which must leave nothing
    // in $TMPDIR.
    ::setenv("TMPDIR", (root + "/tmp").c_str(), 1);
    std::string cold;
    const int cold_rc =
        fig4({"--jobs=2", cache.c_str(), "--exec-stats"}, cold, err);
    if (saved)
        ::setenv("TMPDIR", saved_val.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
    ASSERT_EQ(cold_rc, 0) << err;
    EXPECT_EQ(cold, single);
    EXPECT_NE(err.find("sims=2 "), std::string::npos) << err;
    EXPECT_TRUE(fs::is_empty(root + "/tmp")) << "left files in $TMPDIR";

    // Warm: every result comes from the cache dir, so nothing forks.
    std::string warm;
    ASSERT_EQ(fig4({"--jobs=2", cache.c_str(), "--exec-stats"}, warm, err),
              0)
        << err;
    EXPECT_EQ(warm, single);
    EXPECT_NE(err.find("sims=0 "), std::string::npos) << err;

    SimCache::global().clear();
    exp::configureExecution(exp::ExperimentOptions{});
    fs::remove_all(root);
}

namespace
{

/** The value after the first " key=" in @p text, or -1 if absent. */
long long
statValue(const std::string &text, const std::string &key)
{
    const std::size_t at = text.find(" " + key + "=");
    if (at == std::string::npos)
        return -1;
    return std::stoll(text.substr(at + key.size() + 2));
}

} // namespace

TEST(Cli, JobsExecStatsCountTheForkedSimulations)
{
    // The totals are process-wide, so each run is judged by what it
    // added to them. Every field compared is an exact count.
    const char *const speed_keys[] = {"runs",     "core-cycles",
                                      "ticked-edges", "sm-slept",
                                      "l2-slept", "dram-slept"};
    const char *const domains[] = {"dram", "icnt", "core"};
    struct Added
    {
        std::vector<long long> speed, ticks;
    };
    auto run = [&](const char *fan_out) {
        SimCache::global().clear();
        const SimSpeedTotals before = simSpeedTotals();
        const auto ticks_before = tickProfileTotals();
        std::string out, err;
        EXPECT_EQ(runCli({"sec6", "--benches=bfs", "--shrink=16", fan_out,
                          "--exec-stats", "--profile-ticks"},
                         out, err),
                  0)
            << err;
        const long long prior[] = {
            static_cast<long long>(before.runs),
            static_cast<long long>(before.coreCycles),
            static_cast<long long>(before.tickedEdges),
            static_cast<long long>(before.sleptCoreCycles),
            static_cast<long long>(before.sleptL2Ticks),
            static_cast<long long>(before.sleptDramTicks)};
        Added a;
        for (std::size_t k = 0; k < std::size(speed_keys); ++k)
            a.speed.push_back(statValue(err, speed_keys[k]) - prior[k]);
        for (const char *d : domains) {
            long long prior_ticks = 0;
            for (const auto &t : ticks_before)
                if (t.domain == d)
                    prior_ticks = static_cast<long long>(t.ticks);
            const std::size_t at =
                err.find(std::string("tick profile: domain=") + d + " ");
            EXPECT_NE(at, std::string::npos) << d << "\n" << err;
            if (at != std::string::npos)
                a.ticks.push_back(statValue(err.substr(at), "ticks") -
                                  prior_ticks);
        }
        return a;
    };

    const Added threads = run("--threads=2");
    const Added jobs = run("--jobs=2");
    setTickProfileEnabled(false); // process-global; don't leak
    SimCache::global().clear();
    exp::configureExecution(exp::ExperimentOptions{});

    EXPECT_EQ(threads.speed[0], 4); // sec6 runs 4 sims per benchmark
    EXPECT_GT(threads.speed[1], 0);
    for (std::size_t k = 0; k < std::size(speed_keys); ++k)
        EXPECT_EQ(jobs.speed[k], threads.speed[k]) << speed_keys[k];
    EXPECT_EQ(jobs.ticks, threads.ticks);
}
#endif // __unix__
