/**
 * @file
 * WorkloadSpec: the pluggable workload identity behind every
 * simulation. Historically the simulator only ran synthetic
 * BenchmarkProfiles, and the (profile, config) pair was hard-wired
 * through SimCache keys and the disk-cache header. A WorkloadSpec is
 * a tagged union over three sources:
 *
 *   Synthetic -- a BenchmarkProfile, exactly as before. The cache key
 *                degrades byte-for-byte to profile.cacheKey(), so
 *                every existing cached result, golden file and disk
 *                cache entry stays valid (zero rebless).
 *   Trace     -- a file-backed memory-access trace (text "type addr"
 *                or packed binary; see workloads/trace_source.hh),
 *                keyed by its FNV-1a content hash so cache hits
 *                survive file moves and text<->binary repacking.
 *   Generator -- a parameterized microbenchmark (pointer-chase
 *                latency probe or strided bandwidth sweep; see
 *                workloads/generators.hh) whose measured in-simulator
 *                behaviour recovers the configured hierarchy
 *                parameters -- the refactor's built-in validation.
 *
 * For Trace and Generator specs the embedded profile still supplies
 * the launch shape (numCtas / warpsPerCta / maxCtasPerCore) and the
 * display name; the synthetic address-stream knobs are ignored.
 *
 * Non-synthetic cache keys start with '#', which no profile key can:
 * BenchmarkProfile::cacheKey() leads with a KeyBuilder length prefix,
 * so its first byte is always a digit.
 */

#ifndef BWSIM_WORKLOADS_WORKLOAD_SPEC_HH
#define BWSIM_WORKLOADS_WORKLOAD_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/serdes.hh"
#include "common/types.hh"
#include "smcore/isa.hh"
#include "workloads/profile.hh"

namespace bwsim
{

enum class WorkloadKind : std::uint8_t
{
    Synthetic = 0,
    Trace = 1,
    Generator = 2,
};

/** One memory access of a file-backed trace; widest field first, so
 *  a record takes 16 bytes, not 24. */
struct TraceRecord
{
    Addr addr = 0;
    /** CTA tag from the optional third column; -1 = untagged. */
    std::int32_t cta = -1;
    Op op = Op::Load; ///< Load or Store only
};

/** Largest CTA tag a trace may carry, so that maxTag + 1 CTAs fit an
 *  int. */
constexpr std::int32_t traceMaxCtaTag = 2147483646;

/** An in-memory trace plus its canonical content hash. */
struct TraceData
{
    std::string sourceName; ///< display only; excluded from the hash
    bool ctaTagged = false;
    std::vector<TraceRecord> records;
    /** fnv1a64 over canonicalTraceBytes(); the cache identity. */
    std::uint64_t contentHash = 0;
    /**
     * Tagged traces only: every record index, stably sorted by CTA
     * tag, so each CTA's records form one slice in file order. Built
     * by sealTrace() and excluded from the hash; 4 B per record
     * however sparse the tags are.
     */
    std::vector<std::uint32_t> byCta;
};

/**
 * Canonical record encoding hashed for content identity. The text
 * and packed-binary encodings of the same accesses produce identical
 * canonical bytes, so `bwsim trace pack` never invalidates a cache.
 */
std::string canonicalTraceBytes(const TraceData &t);

/**
 * Recompute and store @p t.contentHash and @p t.byCta from its
 * records, in O(records) time and memory. A tagged trace's tags must
 * lie in [0, traceMaxCtaTag].
 */
void sealTrace(TraceData &t);

enum class GenKind : std::uint8_t
{
    PointerChase = 0, ///< serial dependent-load latency probe
    Stride = 1,       ///< independent strided-load bandwidth sweep
};

struct GeneratorParams
{
    GenKind kind = GenKind::PointerChase;
    /** Footprint of the probed region (rounded down to a power of two
     *  of cache lines by the pointer-chase permutation). */
    std::uint64_t regionBytes = 8 * 1024;
    /** Distance between consecutive loads (Stride only). */
    std::uint64_t strideBytes = 128;
    /** Loads issued per warp. */
    int insts = 2000;
};

struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::Synthetic;
    /** Full parameters (Synthetic) or launch shape + name (others). */
    BenchmarkProfile profile;
    std::shared_ptr<const TraceData> trace; ///< Trace only
    GeneratorParams gen;                    ///< Generator only

    WorkloadSpec() = default;
    /** Implicit: every profile call site is a synthetic spec. */
    WorkloadSpec(const BenchmarkProfile &p) : profile(p) {}
    WorkloadSpec(BenchmarkProfile &&p) : profile(std::move(p)) {}

    const std::string &name() const { return profile.name; }

    /**
     * Stable SimCache identity. Synthetic specs return
     * profile.cacheKey() unchanged; Trace keys hash content, not file
     * names, so a moved or repacked trace still hits the cache.
     */
    std::string cacheKey() const;

    /** "Simulates identically", mirroring BenchmarkProfile. */
    bool operator==(const WorkloadSpec &o) const
    {
        return cacheKey() == o.cacheKey();
    }
    bool operator!=(const WorkloadSpec &o) const { return !(*this == o); }
};

/**
 * Wrap a sealed trace in a runnable spec. The launch shape defaults
 * to 4 CTAs x 4 warps (16 warp contexts, within every config's
 * per-core budget); CTA-tagged traces instead launch maxTag+1 CTAs,
 * read off the end of the trace's byCta index.
 */
WorkloadSpec makeTraceWorkload(std::shared_ptr<const TraceData> trace);

/** Wrap generator parameters in a runnable spec named @p name. */
WorkloadSpec makeGeneratorWorkload(const GeneratorParams &gen,
                                   const std::string &name);

/**
 * Parse a generator benchmark form into a spec:
 *
 *   pchase[:REGION[:INSTS]]   pointer-chase latency probe
 *   stride[:STRIDE[:REGION]]  strided bandwidth sweep
 *
 * Sizes accept k/m/g suffixes ("pchase:8k"). True only for a
 * well-formed generator form; a plain benchmark name returns false.
 * A recognized generator name with malformed parameters is fatal()
 * (it could never be a suite benchmark).
 */
bool parseGeneratorForm(const std::string &form, WorkloadSpec &out);

/** One-line summary of the accepted --trace / generator workload
 *  forms, for "unknown benchmark" diagnostics and --help. */
std::string workloadFormsHelp();

/** Short stable identity: fnv1a64 of cacheKey() as 16 hex digits.
 *  Sweep tables and perf reports record it alongside the display
 *  name so mixed trace/synthetic sweeps stay unambiguous. */
std::string workloadKeyTag(const WorkloadSpec &spec);

/**
 * Build the instruction stream of one warp of @p spec -- the single
 * dispatch point the GPU's CTA distributor uses for every kind.
 */
std::unique_ptr<TraceCursor>
makeWorkloadCursor(const WorkloadSpec &spec, int core_id,
                   std::uint64_t cta_seq, int warp_in_cta,
                   std::uint32_t line_bytes);

} // namespace bwsim

#endif // BWSIM_WORKLOADS_WORKLOAD_SPEC_HH
