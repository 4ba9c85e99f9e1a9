/**
 * @file
 * Cache-key byte stability. Every persisted name derives from a
 * cacheKey() string: disk-tier entry files (sc-<fnv1a64(key)>.bin)
 * and the key stored in each entry header. A formatting drift in
 * KeyBuilder would pass every equality test while silently orphaning
 * every existing cache dir, so the exact bytes are pinned here:
 *
 *  - tests/golden/cache_keys.txt holds the keys of the config
 *    presets, every suite profile at two shrink factors, the
 *    generator forms and the golden replay trace, plus the entry
 *    file names of a few (workload, config) pairs.
 *    Reblessing it (BWSIM_REGEN_GOLDEN=1 ./build/test_cache_keys)
 *    orphans every user's cache dir: do it only together with a
 *    deliberate cache format break.
 *  - A seeded property test checks the std::to_chars formatting of
 *    KeyBuilder and TextTable against the printf conversions that
 *    defined the historical bytes (%.17g, %.*f, %.*f%%), on >= 100k
 *    doubles including signed zeros, subnormals, NaNs, infinities
 *    and exact decimal rounding ties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/key_builder.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/disk_cache.hh"
#include "core/dse.hh"
#include "core/experiments.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu_config.hh"
#include "stats/table.hh"
#include "workloads/profile.hh"
#include "workloads/trace_source.hh"
#include "workloads/workload_spec.hh"

#ifndef BWSIM_GOLDEN_DIR
#error "CMake must define BWSIM_GOLDEN_DIR (tests/golden in the source tree)"
#endif

using namespace bwsim;

namespace
{

const char *const kFixture = BWSIM_GOLDEN_DIR "/cache_keys.txt";

GpuConfig
preset(const std::string &name)
{
    GpuConfig c;
    if (!findConfigPreset(name, c))
        ADD_FAILURE() << "no config preset '" << name << "'";
    return c;
}

WorkloadSpec
generator(const std::string &form)
{
    WorkloadSpec s;
    if (!parseGeneratorForm(form, s))
        ADD_FAILURE() << "not a generator form: '" << form << "'";
    return s;
}

WorkloadSpec
replayTrace()
{
    std::string err;
    auto trace =
        loadTraceFile(std::string(BWSIM_GOLDEN_DIR) + "/replay.trace", err);
    if (!trace) {
        ADD_FAILURE() << err;
        return WorkloadSpec();
    }
    return makeTraceWorkload(trace);
}

/** One "<label>\t<bytes>" line per pinned key or file name. */
std::string
renderKeys()
{
    std::ostringstream os;
    auto line = [&os](const std::string &label, const std::string &key) {
        EXPECT_EQ(key.find_first_of("\t\n"), std::string::npos) << label;
        os << label << '\t' << key << '\n';
    };

    const char *const presets[] = {
        "baseline", "L1", "L2", "DRAM", "L1+L2", "L2+DRAM", "All",
        "HBM", "16+48", "16+68", "32+52", "L1-bypass", "L2-sectored",
        "L2-decoupled", "P-inf", "P-DRAM", "fixed-0", "fixed-200"};
    for (const char *name : presets)
        line(std::string("config ") + name, preset(name).cacheKey());
    // Fig. 11's configs: the only clocks computed (GHz * 1000.0)
    // rather than written as literals.
    for (double ghz : exp::fig11DefaultFrequencies()) {
        GpuConfig c = GpuConfig::baseline();
        c.name = csprintf("%.1fGHz", ghz);
        c.coreClockMhz = ghz * 1000.0;
        line("config " + c.name, c.cacheKey());
    }

    for (const BenchmarkProfile &p : benchmarkSuite())
        for (int factor : {1, 16})
            line(csprintf("profile %s shrink=%d", p.name.c_str(), factor),
                 WorkloadSpec(shrinkProfile(p, factor)).cacheKey());

    for (const char *form : {"pchase", "pchase:8k", "pchase:64k:200",
                             "stride", "stride:256", "stride:128:2m"})
        line(std::string("generator ") + form, generator(form).cacheKey());
    line("trace replay.trace", replayTrace().cacheKey());

    struct Pair
    {
        WorkloadSpec workload;
        const char *config;
    };
    const Pair pairs[] = {
        {shrinkProfile(*findBenchmark("bfs"), 1), "baseline"},
        {shrinkProfile(*findBenchmark("lbm"), 16), "All"},
        {shrinkProfile(*findBenchmark("mm"), 4), "16+48"},
        {generator("pchase"), "fixed-200"},
        {generator("stride:128"), "P-DRAM"},
        {replayTrace(), "P-inf"},
    };
    for (const Pair &p : pairs) {
        const std::string key = SimCache::keyOf(p.workload, preset(p.config));
        const std::string label =
            csprintf("%s %s", p.workload.name().c_str(), p.config);
        line("file " + label, DiskSimCache::fileNameFor(key));
    }
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::istringstream is(s);
    for (std::string l; std::getline(is, l);)
        lines.push_back(l);
    return lines;
}

} // namespace

TEST(CacheKeys, MatchCheckedInFixtureByteForByte)
{
    const std::string fresh = renderKeys();
    if (std::getenv("BWSIM_REGEN_GOLDEN")) {
        std::ofstream out(kFixture, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(bool(out)) << "cannot write " << kFixture;
        out << fresh;
        return;
    }
    std::ifstream in(kFixture, std::ios::binary);
    ASSERT_TRUE(bool(in)) << "missing key fixture " << kFixture;
    std::stringstream golden;
    golden << in.rdbuf();

    // Line by line first, so a drift names the key it hit.
    const auto want = splitLines(golden.str());
    const auto got = splitLines(fresh);
    ASSERT_EQ(got.size(), want.size()) << "pinned key set changed";
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "key bytes drifted on line " << i + 1;
    EXPECT_EQ(fresh, golden.str());
}

namespace
{

/**
 * >= 100k seeded doubles: hand-picked edge values, exact decimal
 * rounding ties at precisions 0-4, values of table-like magnitude,
 * and raw 64-bit patterns (every exponent, subnormals, NaN payloads).
 */
std::vector<double>
drawDoubles()
{
    using L = std::numeric_limits<double>;
    std::vector<double> v = {
        0.0, -0.0, 0.125, -0.125, 2.5, -2.5, 0.5, 1.5, 0.375, 0.0625,
        0.03125, 1e-5, 0.1, 0.35, 1.3 * 1000.0, 1e15, 1e16, 1e17,
        9007199254740993.0, 123456789012345678.0, L::min(),
        L::denorm_min(), -L::denorm_min(), L::min() - L::denorm_min(),
        L::max(), -L::max(), L::epsilon(), L::infinity(),
        -L::infinity(), L::quiet_NaN(), -L::quiet_NaN()};

    Rng rng(20170424);
    // Exact ties: n + (2j+1) / 2^(p+1) ends in a 5 at decimal digit
    // p+1, so %.*f must round half to even on the exact binary value.
    for (int p = 0; p <= 4; ++p) {
        for (int i = 0; i < 2000; ++i) {
            const double n = static_cast<double>(rng.below(1000000));
            const double j = static_cast<double>(rng.below(1u << p));
            const double tie = n + (2.0 * j + 1.0) / std::ldexp(1.0, p + 1);
            v.push_back(rng.chance(0.5) ? tie : -tie);
        }
    }
    // Magnitudes the tables and keys actually carry: ratios, latencies,
    // clocks, bandwidths.
    for (int i = 0; i < 40000; ++i) {
        const int exp10 = static_cast<int>(rng.below(21)) - 10;
        const double mag = std::pow(10.0, exp10);
        v.push_back(rng.uniform() * mag * (rng.chance(0.2) ? -1.0 : 1.0));
    }
    for (int i = 0; i < 10000; ++i)
        v.push_back(static_cast<double>(rng.below(10000)) /
                    static_cast<double>(rng.below(999) + 1));
    while (v.size() < 110000) {
        const std::uint64_t bits = rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        v.push_back(d);
    }
    return v;
}

/** Just the bytes one KeyBuilder field appends, trailing '|' dropped. */
template <typename Fn>
std::string
keyField(Fn add)
{
    KeyBuilder kb(32);
    add(kb);
    std::string k = std::move(kb).str();
    EXPECT_FALSE(k.empty());
    EXPECT_EQ(k.back(), '|');
    k.pop_back();
    return k;
}

} // namespace

TEST(FormatSwap, KeyBuilderAddFIsPrintfG17)
{
    const std::vector<double> doubles = drawDoubles();
    ASSERT_GE(doubles.size(), 100000u);
    std::size_t mismatches = 0;
    for (double d : doubles) {
        const std::string got = keyField([d](KeyBuilder &kb) { kb.addF(d); });
        const std::string want = csprintf("%.17g", d);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << "addF(" << want << ") wrote '" << got << "'";
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(FormatSwap, KeyBuilderIntegersAndLengthPrefixes)
{
    Rng rng(7);
    std::vector<std::uint64_t> us = {
        0, 1, 9, 10, 99, 100, std::numeric_limits<std::uint64_t>::max()};
    std::vector<long long> is = {0, -1, 1,
                                 std::numeric_limits<long long>::min(),
                                 std::numeric_limits<long long>::max()};
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = rng.next() >> rng.below(64);
        us.push_back(bits);
        is.push_back(static_cast<long long>(bits));
    }
    for (std::uint64_t u : us)
        ASSERT_EQ(keyField([u](KeyBuilder &kb) { kb.addU(u); }),
                  csprintf("%llu", static_cast<unsigned long long>(u)));
    for (long long i : is)
        ASSERT_EQ(keyField([i](KeyBuilder &kb) { kb.addI(i); }),
                  csprintf("%lld", i));
    for (std::size_t len : {0u, 1u, 9u, 10u, 300u}) {
        const std::string s(len, 'x');
        ASSERT_EQ(keyField([&s](KeyBuilder &kb) { kb.addStr(s); }),
                  csprintf("%zu:", len) + s);
    }
}

TEST(FormatSwap, TableCellsArePrintfFixed)
{
    const std::vector<double> doubles = drawDoubles();
    std::size_t mismatches = 0;
    for (double d : doubles) {
        stats::TextTable t({"n0", "n1", "n2", "n3", "n4", "p0", "p1", "p2",
                            "p3", "p4", "i"});
        t.newRow();
        for (int p = 0; p <= 4; ++p)
            t.addNum(d, p);
        for (int p = 0; p <= 4; ++p)
            t.addPct(d, p);
        const long long ll = static_cast<long long>(
            std::isfinite(d) && std::fabs(d) < 9e18 ? d : 0.0);
        t.addInt(ll);
        for (int p = 0; p <= 4; ++p) {
            const std::string num = csprintf("%.*f", p, d);
            const std::string pct = csprintf("%.*f%%", p, d * 100.0);
            if ((t.cell(0, p) != num || t.cell(0, 5 + p) != pct) &&
                ++mismatches <= 10)
                ADD_FAILURE() << "precision " << p << ": addNum '"
                              << t.cell(0, p) << "' vs '" << num
                              << "', addPct '" << t.cell(0, 5 + p)
                              << "' vs '" << pct << "'";
        }
        if (t.cell(0, 10) != csprintf("%lld", ll) && ++mismatches <= 10)
            ADD_FAILURE() << "addInt(" << ll << ") wrote '" << t.cell(0, 10)
                          << "'";
    }
    EXPECT_EQ(mismatches, 0u);
}
