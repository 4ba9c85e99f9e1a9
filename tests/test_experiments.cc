/** @file Tests for the experiment registry (shrunk, fast settings). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "core/dse.hh"
#include "core/experiments.hh"

using namespace bwsim;
using namespace bwsim::exp;

namespace
{

ExperimentOptions
quickOpts(std::vector<std::string> benches)
{
    ExperimentOptions o;
    o.benchmarks = std::move(benches);
    o.shrink = 4;
    o.threads = 0;
    return o;
}

} // namespace

TEST(Dse, ShrinkProfileReducesWork)
{
    const BenchmarkProfile *p = findBenchmark("mm");
    BenchmarkProfile s = shrinkProfile(*p, 4);
    EXPECT_LT(s.numCtas, p->numCtas);
    EXPECT_LT(s.instsPerWarp, p->instsPerWarp);
    EXPECT_GE(s.numCtas, s.maxCtasPerCore);
}

TEST(Dse, AverageOf)
{
    EXPECT_DOUBLE_EQ(averageOf({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(averageOf({}), 0.0);
}

TEST(Dse, RunAllPreservesOrderAndParallelismAgrees)
{
    std::vector<RunSpec> specs;
    for (const char *b : {"mm", "nn"}) {
        RunSpec s;
        s.workload = shrinkProfile(*findBenchmark(b), 4);
        s.config = GpuConfig::baseline();
        specs.push_back(s);
    }
    auto serial = ThreadedBackend().runAll(specs, 1);
    auto parallel = ThreadedBackend().runAll(specs, 4);
    ASSERT_EQ(serial.size(), 2u);
    EXPECT_EQ(serial[0].benchmark, "mm");
    EXPECT_EQ(serial[1].benchmark, "nn");
    // Determinism: threading must not change results.
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(serial[i].coreCycles, parallel[i].coreCycles);
        EXPECT_EQ(serial[i].warpInstsIssued,
                  parallel[i].warpInstsIssued);
    }
}

TEST(Experiments, SelectBenchmarksSubsets)
{
    auto all = selectBenchmarks(quickOpts({}));
    EXPECT_EQ(all.size(), 19u);
    auto two = selectBenchmarks(quickOpts({"mm", "sc"}));
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].name(), "mm");
    EXPECT_EQ(two[1].name(), "sc");
}

TEST(Experiments, BaselineFiguresWellFormed)
{
    auto opts = quickOpts({"mm", "stencil"});
    auto base = baselineResults(opts);
    ASSERT_EQ(base.size(), 2u);

    auto fig1 = fig1StallsAndLatencies(base);
    EXPECT_EQ(fig1.rowNames.back(), "AVG");
    EXPECT_GT(fig1.at("mm", "IssueStall%"), 10.0);
    EXPECT_GT(fig1.at("mm", "AML"), fig1.at("mm", "L2-AHL"));

    auto fig7 = fig7IssueStallDistribution(base);
    double sum = 0;
    for (const auto &c : fig7.colNames)
        sum += fig7.at("mm", c);
    EXPECT_NEAR(sum, 100.0, 0.5);

    auto fig4 = fig4L2QueueOccupancy(base);
    double occ = 0;
    for (const auto &c : fig4.colNames)
        occ += fig4.at("mm", c);
    EXPECT_NEAR(occ, 1.0, 0.01);

    auto fig8 = fig8L2StallDistribution(base);
    auto fig9 = fig9L1StallDistribution(base);
    EXPECT_EQ(fig8.colNames.size(), 5u);
    EXPECT_EQ(fig9.colNames.size(), 3u);

    auto eff = sec4DramEfficiency(base);
    EXPECT_GE(eff.at("stencil", "BW-efficiency%"), 0.0);
    EXPECT_LE(eff.at("stencil", "BW-efficiency%"), 100.0);
}

TEST(Experiments, SpeedupTableAvgIsColumnMean)
{
    auto opts = quickOpts({"mm", "nn"});
    auto t = tab2SpeedupBounds(opts);
    ASSERT_EQ(t.rowNames.size(), 3u); // two benches + AVG
    for (const auto &c : t.colNames) {
        double avg = (t.at("mm", c) + t.at("nn", c)) / 2.0;
        EXPECT_NEAR(t.at("AVG", c), avg, 1e-9);
    }
    // Bounds relationship: P-inf >= P-DRAM-ish (allow sim noise).
    EXPECT_GE(t.at("AVG", "P-inf"), t.at("AVG", "P-DRAM") * 0.95);
}

TEST(Experiments, SeriesTableAtThrowsOnUnknown)
{
    auto opts = quickOpts({"mm"});
    auto base = baselineResults(opts);
    auto t = fig1StallsAndLatencies(base);
    EXPECT_DEATH((void)t.at("nope", "AML"), "no such cell");
}

TEST(Experiments, Fig3DefaultsMatchPaper)
{
    auto b = fig3DefaultBenchmarks();
    EXPECT_EQ(b.size(), 8u); // the paper's representative set
    auto l = fig3DefaultLatencies();
    EXPECT_EQ(l.front(), 0u);
    EXPECT_EQ(l.back(), 800u);
}

TEST(Experiments, Fig11DefaultsMatchPaper)
{
    EXPECT_EQ(fig11DefaultBenchmarks().size(), 6u);
    auto f = fig11DefaultFrequencies();
    EXPECT_EQ(f.size(), 5u);
    EXPECT_DOUBLE_EQ(f[2], 1.4); // the baseline point
}

TEST(Experiments, StaticTables)
{
    auto t1 = tab1BaselineConfig();
    EXPECT_GT(t1.numRows(), 8u);
    auto t3 = tab3DesignSpace();
    EXPECT_EQ(t3.numRows(), 14u); // the 14 Table III parameters
    auto area = sec7AreaOverhead();
    EXPECT_EQ(area.rowNames.size(), 3u);
    EXPECT_NEAR(area.at("16+48", "die-overhead%"), 1.1, 0.2);
    EXPECT_NEAR(area.at("16+68", "die-overhead%"), 1.6, 0.2);
}

TEST(Dse, ShrinkProfileClampsDegenerateProfilesToNonZeroWork)
{
    // A factor larger than the CTA or instruction count must clamp,
    // never produce a zero-work profile (regression: a profile with
    // no per-core CTA floor used to shrink to zero CTAs).
    BenchmarkProfile p;
    p.name = "degenerate";
    p.numCtas = 4;
    p.maxCtasPerCore = 0;
    p.instsPerWarp = 10;
    BenchmarkProfile s = shrinkProfile(p, 1000);
    EXPECT_EQ(s.numCtas, 1);
    EXPECT_GE(s.instsPerWarp, 1);
    // Shrinking never grows a profile (the old 40-instruction floor
    // inflated short-kernel profiles).
    EXPECT_LE(s.instsPerWarp, p.instsPerWarp);
    EXPECT_LE(s.numCtas, std::max(p.numCtas, 1));

    // Nor does the per-core CTA floor: a profile with fewer CTAs than
    // maxCtasPerCore must not be inflated up to the floor.
    BenchmarkProfile small;
    small.numCtas = 2;
    small.maxCtasPerCore = 8;
    small.instsPerWarp = 100;
    EXPECT_EQ(shrinkProfile(small, 1).numCtas, 2);
    EXPECT_EQ(shrinkProfile(small, 100).numCtas, 2);
}

TEST(Experiments, SplitCsvTrimsWhitespaceAndDropsEmpties)
{
    auto v = splitCsv(" mm , lbm\t,, \t ,sc");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "mm");
    EXPECT_EQ(v[1], "lbm");
    EXPECT_EQ(v[2], "sc");
    EXPECT_TRUE(splitCsv("").empty());
    EXPECT_TRUE(splitCsv(" , ,").empty());
}

TEST(Experiments, ParseIntIsStrict)
{
    int v = -1;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("4x", v));
    EXPECT_FALSE(parseInt("x4", v));
    EXPECT_FALSE(parseInt("4.5", v));
    EXPECT_FALSE(parseInt("99999999999999999999", v));
    // Stricter than strtol: no leading whitespace, '+', or bare '-'.
    EXPECT_FALSE(parseInt(" 4", v));
    EXPECT_FALSE(parseInt("+4", v));
    EXPECT_FALSE(parseInt("4 ", v));
    EXPECT_FALSE(parseInt("-", v));
}

TEST(Experiments, FromEnvRejectsMalformedIntegers)
{
    // The env path must fail with the CLI's strict error, not fall
    // back to a silent default (BWSIM_THREADS=abc used to mean 0).
    EXPECT_EXIT(
        {
            setenv("BWSIM_THREADS", "abc", 1);
            (void)ExperimentOptions::fromEnv();
            ::exit(0);
        },
        ::testing::ExitedWithCode(1), "BWSIM_THREADS expects an integer");
    EXPECT_EXIT(
        {
            setenv("BWSIM_SHRINK", "4x", 1);
            (void)ExperimentOptions::fromEnv();
            ::exit(0);
        },
        ::testing::ExitedWithCode(1), "BWSIM_SHRINK expects an integer");
}

TEST(Experiments, FromEnvReadsValidValues)
{
    setenv("BWSIM_BENCHES", " mm , sc ", 1);
    setenv("BWSIM_THREADS", "3", 1);
    setenv("BWSIM_SHRINK", "-2", 1); // valid integer: clamps like the CLI
    setenv("BWSIM_CACHE_DIR", "/tmp/bwsim-env-cache", 1);
    ExperimentOptions o = ExperimentOptions::fromEnv();
    unsetenv("BWSIM_BENCHES");
    unsetenv("BWSIM_THREADS");
    unsetenv("BWSIM_SHRINK");
    unsetenv("BWSIM_CACHE_DIR");

    ASSERT_EQ(o.benchmarks.size(), 2u);
    EXPECT_EQ(o.benchmarks[0], "mm");
    EXPECT_EQ(o.benchmarks[1], "sc");
    EXPECT_EQ(o.threads, 3);
    EXPECT_EQ(o.shrink, 1);
    EXPECT_EQ(o.cacheDir, "/tmp/bwsim-env-cache");
}

TEST(Experiments, ParseTableFormat)
{
    TableFormat f = TableFormat::Text;
    EXPECT_TRUE(parseTableFormat("csv", f));
    EXPECT_EQ(f, TableFormat::Csv);
    EXPECT_TRUE(parseTableFormat("tsv", f));
    EXPECT_EQ(f, TableFormat::Tsv);
    EXPECT_TRUE(parseTableFormat("text", f));
    EXPECT_EQ(f, TableFormat::Text);
    EXPECT_TRUE(parseTableFormat("json", f));
    EXPECT_EQ(f, TableFormat::Json);
    EXPECT_FALSE(parseTableFormat("xml", f));
    EXPECT_FALSE(parseTableFormat("", f));
}
