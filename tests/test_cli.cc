/**
 * @file
 * bwsim CLI tests: registry completeness, --list, option parsing, and
 * parity between single-process and --jobs runs.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "cli/cli.hh"
#include "core/sim_cache.hh"
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
    // 17 experiments: figs 1/3/4/5/7/8/9/10/11/12, tables I-III,
    // secs IV/VI/VII, and the ablation study.
    EXPECT_EQ(reg.size(), 17u);
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
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--backend=queue",
                      "--spool-dir=/tmp/x"},
                     out, err),
              0);
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
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--jobs=0"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);
}

TEST(Cli, UsageMentionsTheExecutionFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag :
         {"--cache-dir", "--jobs", "--format", "--exec-stats"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

TEST(Cli, BackendOptionsValidated)
{
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--backend=carrier-pigeon"}, out, err), 0);
    EXPECT_NE(err.find("--backend"), std::string::npos);

    // The fork fan-out is --jobs=N, not a backend of its own: the
    // retired "jobs" backend name is unknown.
    const std::string jobs_backend = std::string("--backend=") + "jobs";
    err.clear();
    EXPECT_NE(runCli({"tab1", jobs_backend.c_str(), "--jobs=2"}, out, err),
              0);
    EXPECT_NE(err.find("--backend expects threads or queue"),
              std::string::npos);

    // queue without a spool: nowhere to put the jobs.
    err.clear();
    EXPECT_NE(runCli({"tab1", "--backend=queue"}, out, err), 0);
    EXPECT_NE(err.find("--spool-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--backend=threads", "--jobs=2"}, out,
                     err),
              0);
    EXPECT_NE(err.find("contradicts"), std::string::npos);

    // Local --jobs workers join the given spool next to external ones.
    const std::string spool = ::testing::TempDir() + "bwsim-cli-q-jobs";
    const std::string spool_flag = "--spool-dir=" + spool;
    std::filesystem::remove_all(spool);
    err.clear();
    EXPECT_EQ(runCli({"tab1", "--backend=queue", spool_flag.c_str(),
                      "--jobs=2"},
                     out, err),
              0)
        << err;
    EXPECT_NE(out.find("Table I"), std::string::npos);
    std::filesystem::remove_all(spool);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--job-timeout=0"}, out, err), 0);
    EXPECT_NE(err.find("--job-timeout"), std::string::npos);
}

TEST(Cli, WorkerModeValidated)
{
    std::string out, err;
    EXPECT_NE(runCli({"--worker"}, out, err), 0);
    EXPECT_NE(err.find("--spool-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--worker", "--spool-dir=/tmp/s", "tab1"}, out,
                     err),
              0);
    EXPECT_NE(err.find("no experiment names"), std::string::npos);
}

TEST(Cli, CacheHousekeepingNeedsACacheDir)
{
    std::string out, err;
    EXPECT_NE(runCli({"--cache-stats"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--cache-max-mb=1"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    // A negative budget is a mistake, not a no-op.
    err.clear();
    EXPECT_NE(runCli({"--cache-max-mb=-5", "--cache-dir=/tmp/x"}, out,
                     err),
              0);
    EXPECT_NE(err.find("--cache-max-mb"), std::string::npos);
}

TEST(Cli, CacheStatsOnAnEmptyDirReportsZeroEntries)
{
    std::string dir = ::testing::TempDir() + "bwsim-cli-cache-stats";
    std::filesystem::remove_all(dir);
    std::string out, err;
    // Housekeeping-only invocation: no experiment names needed.
    ASSERT_EQ(runCli({"--cache-stats", ("--cache-dir=" + dir).c_str()},
                     out, err),
              0);
    EXPECT_NE(out.find("0 entries"), std::string::npos) << out;
}

TEST(Cli, UsageMentionsTheQueueFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag :
         {"--backend", "--spool-dir", "--job-timeout", "--worker",
          "--cache-stats", "--cache-max-mb"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

#ifdef __unix__
TEST(Cli, ScratchSpoolDirTemplateHonorsTmpdir)
{
    // Save and restore whatever the harness environment set.
    const char *saved = std::getenv("TMPDIR");
    const std::string saved_val = saved ? saved : "";

    ::setenv("TMPDIR", "/some/scratch", 1);
    EXPECT_EQ(cli::scratchSpoolDirTemplate(),
              "/some/scratch/bwsim-spool-XXXXXX");

    // Trailing slashes must not double the separator.
    ::setenv("TMPDIR", "/some/scratch///", 1);
    EXPECT_EQ(cli::scratchSpoolDirTemplate(),
              "/some/scratch/bwsim-spool-XXXXXX");

    // Unset or empty falls back to /tmp like mktemp(1).
    ::unsetenv("TMPDIR");
    EXPECT_EQ(cli::scratchSpoolDirTemplate(), "/tmp/bwsim-spool-XXXXXX");
    ::setenv("TMPDIR", "", 1);
    EXPECT_EQ(cli::scratchSpoolDirTemplate(), "/tmp/bwsim-spool-XXXXXX");

    // The template actually works: mkdtemp() materializes the scratch
    // dir inside the TMPDIR the user asked for.
    const std::string base = "/tmp/bwsim-tmpdir-test";
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base);
    ::setenv("TMPDIR", base.c_str(), 1);
    std::string tmpl_str = cli::scratchSpoolDirTemplate();
    ASSERT_EQ(tmpl_str.rfind(base + "/bwsim-spool-", 0), 0u);
    std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
    tmpl.push_back('\0');
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    EXPECT_TRUE(std::filesystem::is_directory(tmpl.data()));
    std::filesystem::remove_all(base);

    if (saved)
        ::setenv("TMPDIR", saved_val.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
}

TEST(Cli, JobsMatchesTheSingleProcessRun)
{
    // --jobs=2 forks two in-process work-queue workers (no re-exec),
    // so it runs inside this test binary.
    namespace fs = std::filesystem;
    const std::string root = ::testing::TempDir() + "bwsim-cli-jobs";
    fs::remove_all(root);
    fs::create_directories(root + "/tmp");
    const std::string cache = "--cache-dir=" + root + "/cache";
    const std::string spool = root + "/spool";
    const std::string spool_flag = "--spool-dir=" + spool;
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

    // Cold: both sims go through a scratch spool under $TMPDIR, which
    // must be gone afterwards.
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
    EXPECT_TRUE(fs::is_empty(root + "/tmp")) << "leaked scratch spool";

    // Warm, through a user-given spool: nothing is simulated, and the
    // spool is the user's to keep.
    std::string warm;
    ASSERT_EQ(fig4({"--jobs=2", cache.c_str(), spool_flag.c_str(),
                    "--exec-stats"},
                   warm, err),
              0)
        << err;
    EXPECT_EQ(warm, single);
    EXPECT_NE(err.find("sims=0 "), std::string::npos) << err;
    EXPECT_TRUE(fs::is_directory(spool));
    EXPECT_FALSE(fs::exists(spool + "/stop"));

    SimCache::global().clear();
    exp::configureExecution(exp::ExperimentOptions{});
    fs::remove_all(root);
}
#endif // __unix__
