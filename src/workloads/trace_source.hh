/**
 * @file
 * TraceSource: file-backed workloads. Two on-disk encodings share one
 * in-memory TraceData (and one content hash):
 *
 * Text ("classic type addr" format), parsed line by line, with an
 * optional third column, the CTA tag:
 *
 *     # comment
 *     ld 0x1000 0
 *     st 0x2000 1
 *
 * Types accept ld/load/r and st/store/w. Fields are separated by
 * the C locale's whitespace (space, \t, \v, \f, \r, \n). Addresses
 * and tags are unsigned integers with strtoull's base-0 rule: a 0x
 * prefix means hex, a leading 0 octal, anything else decimal; a sign
 * or any other byte (a NUL included) in a field is an error. Tags run
 * from 0 to traceMaxCtaTag. A '#' starts a comment only as the first
 * field of a line. A trace is CTA-tagged iff every record carries a
 * tag (mixing is a parse error).
 *
 * Binary (`bwsim trace pack`): a frameBlob envelope (magic, version,
 * FNV-1a checksum) around a small header plus the canonical record
 * bytes -- exactly the bytes the content hash covers, so packing
 * cannot change a trace's cache identity.
 *
 * TraceReplayCursor feeds the records to warps either round-robin
 * over all launched warps (untagged) or by CTA tag with round-robin
 * among the CTA's warps (tagged). Each cursor walks only its own
 * records, a stride through the trace or through its CTA's slice of
 * TraceData::byCta, so one replay costs O(records) however many warps
 * run. Replay is fully deterministic, so like every workload it is
 * bit-identical across scheduler modes.
 */

#ifndef BWSIM_WORKLOADS_TRACE_SOURCE_HH
#define BWSIM_WORKLOADS_TRACE_SOURCE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "smcore/isa.hh"
#include "workloads/workload_spec.hh"

namespace bwsim
{

/** Envelope identity of packed binary traces ("BWTR"). */
constexpr std::uint32_t traceFileMagic = 0x52545742;
constexpr std::uint32_t traceFileVersion = 1;

/** Longest accepted text line, not counting a trailing '\r'; longer
 *  input is a parse error. */
constexpr std::size_t traceMaxLineBytes = 512;

/**
 * Parse the text format from @p in (streaming: the file is never
 * slurped, and a line is never read past traceMaxLineBytes). On
 * success fills a sealed @p out and returns true; on any
 * malformed input fills @p err with a "<name>:<line>: ..." message
 * and returns false. An empty trace (no records) is an error.
 */
bool parseTextTrace(std::istream &in, const std::string &name,
                    TraceData &out, std::string &err);

/** Serialize @p t to the packed binary encoding. */
std::string packTrace(const TraceData &t);

/**
 * Inverse of packTrace(). False with a diagnostic in @p err on a bad
 * envelope, truncation, or a content-hash mismatch.
 */
bool unpackTrace(std::string_view bytes, const std::string &name,
                 TraceData &out, std::string &err);

/**
 * Load @p path, sniffing the packed-binary magic and falling back to
 * the text parser. Null with a diagnostic in @p err on any failure.
 */
std::shared_ptr<const TraceData> loadTraceFile(const std::string &path,
                                               std::string &err);

class TraceReplayCursor final : public TraceCursor
{
  public:
    TraceReplayCursor(std::shared_ptr<const TraceData> trace,
                      int num_ctas, int warps_per_cta,
                      std::uint64_t cta_seq, int warp_in_cta,
                      std::uint32_t line_bytes);

    bool next(WarpInstData &out) override;
    Addr nextPc() const override;
    bool done() const override { return pos >= end; }

  private:
    std::shared_ptr<const TraceData> trace;
    std::uint32_t line;

    /**
     * This warp's records are slot pos, pos + step, ... below end.
     * A slot is a record index (untagged) or a position in
     * trace->byCta (tagged).
     */
    std::size_t pos = 0;
    std::size_t end = 0;
    std::size_t step = 1;
    std::uint64_t instSeq = 0; ///< instructions emitted (PC loop)
};

} // namespace bwsim

#endif // BWSIM_WORKLOADS_TRACE_SOURCE_HH
