#include "workloads/workload_spec.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "common/key_builder.hh"
#include "common/log.hh"
#include "workloads/generators.hh"
#include "workloads/trace_gen.hh"
#include "workloads/trace_source.hh"

namespace bwsim
{

namespace
{

/** canonicalTraceBytes() of the @p n records at @p recs. */
std::string
canonicalBytes(const TraceRecord *recs, std::size_t n)
{
    ByteWriter w;
    for (std::size_t i = 0; i < n; ++i) {
        w.u8(recs[i].op == Op::Store ? 1 : 0);
        w.u64(recs[i].addr);
        // -1 (untagged) encodes as 0 so tagged/untagged never collide.
        // Unsigned arithmetic, here and when decoding: any cta a
        // corrupt payload decodes to must re-encode without overflow.
        w.u32(static_cast<std::uint32_t>(recs[i].cta) + 1u);
    }
    return std::move(w).take();
}

/**
 * Record indices of a tagged trace stably sorted by tag: an LSD radix
 * sort a byte at a time, with as many passes as the largest tag has
 * bytes. A table indexed by tag would cost memory in the largest tag,
 * not in the records.
 */
std::vector<std::uint32_t>
indexByCta(const std::vector<TraceRecord> &recs)
{
    std::vector<std::uint32_t> order(recs.size()), scratch(recs.size());
    std::iota(order.begin(), order.end(), 0u);
    std::uint32_t max_tag = 0;
    for (const auto &r : recs) {
        bwsim_assert(r.cta >= 0 && r.cta <= traceMaxCtaTag,
                     "sealTrace: CTA tag %d out of range", r.cta);
        max_tag = std::max(max_tag, static_cast<std::uint32_t>(r.cta));
    }
    for (unsigned shift = 0; shift < 32 && (max_tag >> shift) != 0;
         shift += 8) {
        const auto digit = [&recs, shift](std::uint32_t i) {
            return (static_cast<std::uint32_t>(recs[i].cta) >> shift) &
                   0xffu;
        };
        std::array<std::size_t, 257> next{};
        for (std::uint32_t i = 0; i < order.size(); ++i)
            ++next[digit(i) + 1];
        std::partial_sum(next.begin(), next.end(), next.begin());
        for (const std::uint32_t i : order)
            scratch[next[digit(i)]++] = i;
        order.swap(scratch);
    }
    return order;
}

} // anonymous namespace

std::string
canonicalTraceBytes(const TraceData &t)
{
    return canonicalBytes(t.records.data(), t.records.size());
}

void
sealTrace(TraceData &t)
{
    bwsim_assert(t.records.size() <=
                     std::numeric_limits<std::uint32_t>::max(),
                 "sealTrace: %zu records overflow the CTA index",
                 t.records.size());
    // fnv1a64(canonicalTraceBytes(t)), a slice of records at a time:
    // the whole encoding would cost 13 B per record at peak.
    constexpr std::size_t slice = 4096;
    std::uint64_t h = fnv1a64Basis;
    for (std::size_t i = 0; i < t.records.size(); i += slice)
        h = fnv1a64(canonicalBytes(t.records.data() + i,
                                   std::min(slice, t.records.size() - i)),
                    h);
    t.contentHash = h;
    t.byCta.clear();
    if (t.ctaTagged)
        t.byCta = indexByCta(t.records);
}

std::string
WorkloadSpec::cacheKey() const
{
    switch (kind) {
    case WorkloadKind::Synthetic:
        return profile.cacheKey();
    case WorkloadKind::Trace: {
        KeyBuilder kb(96);
        kb.addStr("trace");
        kb.addU(trace ? trace->contentHash : 0);
        kb.addU(trace && trace->ctaTagged ? 1 : 0);
        kb.addI(profile.numCtas);
        kb.addI(profile.warpsPerCta);
        kb.addI(profile.maxCtasPerCore);
        return "#" + std::move(kb).str();
    }
    case WorkloadKind::Generator: {
        KeyBuilder kb(96);
        kb.addStr("gen");
        kb.addU(static_cast<std::uint64_t>(gen.kind));
        kb.addU(gen.regionBytes);
        kb.addU(gen.strideBytes);
        kb.addI(gen.insts);
        kb.addI(profile.numCtas);
        kb.addI(profile.warpsPerCta);
        kb.addI(profile.maxCtasPerCore);
        return "#" + std::move(kb).str();
    }
    }
    fatal("WorkloadSpec::cacheKey: corrupt kind %d",
          static_cast<int>(kind));
}

WorkloadSpec
makeTraceWorkload(std::shared_ptr<const TraceData> trace)
{
    bwsim_assert(trace && !trace->records.empty(),
                 "makeTraceWorkload: empty trace");
    WorkloadSpec s;
    s.kind = WorkloadKind::Trace;
    s.profile.name = trace->sourceName;
    s.profile.suite = "trace";
    s.profile.warpsPerCta = 4;
    s.profile.maxCtasPerCore = 4;
    if (trace->ctaTagged) {
        bwsim_assert(trace->byCta.size() == trace->records.size(),
                     "makeTraceWorkload: trace not sealed");
        s.profile.numCtas = trace->records[trace->byCta.back()].cta + 1;
    } else {
        s.profile.numCtas = 4;
    }
    s.trace = std::move(trace);
    return s;
}

WorkloadSpec
makeGeneratorWorkload(const GeneratorParams &gen, const std::string &name)
{
    WorkloadSpec s;
    s.kind = WorkloadKind::Generator;
    s.gen = gen;
    s.profile.name = name;
    s.profile.suite = "generator";
    if (gen.kind == GenKind::PointerChase) {
        // One warp total: exactly one dependent access in flight.
        s.profile.numCtas = 1;
        s.profile.warpsPerCta = 1;
        s.profile.maxCtasPerCore = 1;
    } else {
        // Enough resident warps to saturate the DRAM bus.
        s.profile.numCtas = 30;
        s.profile.warpsPerCta = 8;
        s.profile.maxCtasPerCore = 2;
    }
    return s;
}

namespace
{

/** Parse "64", "8k", "2m", "1g" (case-insensitive suffixes); false
 *  on anything else, including a value that overflows 64 bits. */
bool
parseSizeArg(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t mult = 1;
    std::string digits = s;
    const char suffix = s.back();
    if (suffix == 'k' || suffix == 'K')
        mult = 1024;
    else if (suffix == 'm' || suffix == 'M')
        mult = 1024 * 1024;
    else if (suffix == 'g' || suffix == 'G')
        mult = 1024ull * 1024 * 1024;
    if (mult != 1)
        digits.pop_back();
    if (digits.empty())
        return false;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (kMax - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (v > kMax / mult)
        return false;
    out = v * mult;
    return true;
}

} // anonymous namespace

bool
parseGeneratorForm(const std::string &form, WorkloadSpec &out)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t colon = form.find(':', start);
        parts.push_back(form.substr(start, colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }

    GeneratorParams gen;
    if (parts[0] == "pchase") {
        gen.kind = GenKind::PointerChase;
        gen.regionBytes = 8 * 1024;
        gen.insts = 2000;
        if (parts.size() > 1 && !parseSizeArg(parts[1], gen.regionBytes))
            fatal("malformed pchase region '%s' (want pchase[:REGION"
                  "[:INSTS]], sizes like 8k/2m)",
                  parts[1].c_str());
        if (parts.size() > 2) {
            std::uint64_t insts = 0;
            if (!parseSizeArg(parts[2], insts) || insts == 0 ||
                insts > static_cast<std::uint64_t>(
                            std::numeric_limits<int>::max()))
                fatal("malformed pchase insts '%s' (want 1 to %d)",
                      parts[2].c_str(), std::numeric_limits<int>::max());
            gen.insts = static_cast<int>(insts);
        }
        if (parts.size() > 3)
            fatal("too many pchase parameters in '%s'", form.c_str());
    } else if (parts[0] == "stride") {
        gen.kind = GenKind::Stride;
        gen.strideBytes = 128;
        gen.regionBytes = 256ull * 1024 * 1024;
        gen.insts = 512;
        if (parts.size() > 1 &&
            (!parseSizeArg(parts[1], gen.strideBytes) ||
             gen.strideBytes == 0))
            fatal("malformed stride '%s' (want stride[:STRIDE"
                  "[:REGION]], sizes like 128/1k)",
                  parts[1].c_str());
        if (parts.size() > 2 &&
            (!parseSizeArg(parts[2], gen.regionBytes) ||
             gen.regionBytes == 0))
            fatal("malformed stride region '%s'", parts[2].c_str());
        if (parts.size() > 3)
            fatal("too many stride parameters in '%s'", form.c_str());
    } else {
        return false;
    }
    out = makeGeneratorWorkload(gen, form);
    return true;
}

std::string
workloadFormsHelp()
{
    return "--trace=FILE (text 'type addr' or packed binary), "
           "pchase[:REGION[:INSTS]], stride[:STRIDE[:REGION]]";
}

std::string
workloadKeyTag(const WorkloadSpec &spec)
{
    return csprintf("%016llx", static_cast<unsigned long long>(
                                   fnv1a64(spec.cacheKey())));
}

std::unique_ptr<TraceCursor>
makeWorkloadCursor(const WorkloadSpec &spec, int core_id,
                   std::uint64_t cta_seq, int warp_in_cta,
                   std::uint32_t line_bytes)
{
    switch (spec.kind) {
    case WorkloadKind::Synthetic:
        return makeSyntheticCursor(spec.profile, core_id, cta_seq,
                                   warp_in_cta, line_bytes);
    case WorkloadKind::Trace:
        return std::make_unique<TraceReplayCursor>(
            spec.trace, spec.profile.numCtas, spec.profile.warpsPerCta,
            cta_seq, warp_in_cta, line_bytes);
    case WorkloadKind::Generator:
        if (spec.gen.kind == GenKind::PointerChase)
            return std::make_unique<PointerChaseCursor>(spec.gen,
                                                        line_bytes);
        return std::make_unique<StrideCursor>(
            spec.gen,
            cta_seq * spec.profile.warpsPerCta + warp_in_cta,
            line_bytes);
    }
    fatal("makeWorkloadCursor: corrupt kind %d",
          static_cast<int>(spec.kind));
}

} // namespace bwsim
