#include "workloads/trace_source.hh"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/atomic_file.hh"
#include "common/log.hh"
#include "common/serdes.hh"
#include "workloads/trace_gen.hh"

namespace bwsim
{

namespace
{

/** Fixed canonical record width: u8 op + u64 addr + u32 cta. */
constexpr std::size_t canonRecordBytes = 13;

/**
 * Rebuild records from canonical bytes; false on any malformation,
 * including a tag the text parser would reject or one that does not
 * match @p tagged.
 */
bool
decodeCanonicalRecords(std::string_view canon, bool tagged,
                       std::vector<TraceRecord> &out)
{
    if (canon.size() % canonRecordBytes != 0)
        return false;
    const std::size_t count = canon.size() / canonRecordBytes;
    out.clear();
    out.resize(count);
    ByteReader r(canon.data(), canon.size());
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t op = r.u8();
        if (op > 1)
            return false;
        out[i].op = op ? Op::Store : Op::Load;
        out[i].addr = r.u64();
        // The tag plus one; 0 marks an untagged record.
        const std::uint32_t cta1 = r.u32();
        if (tagged ? (cta1 == 0 || cta1 - 1 > traceMaxCtaTag)
                   : cta1 != 0)
            return false;
        out[i].cta = static_cast<std::int32_t>(cta1) - 1;
    }
    return r.ok();
}

/** The bytes `>>` skips in the C locale: space and \t \n \v \f \r. */
bool
isFieldSeparator(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Cut the next field off the front of @p rest; empty at end of line. */
std::string_view
nextField(std::string_view &rest)
{
    std::size_t b = 0;
    while (b < rest.size() && isFieldSeparator(rest[b]))
        ++b;
    std::size_t e = b;
    while (e < rest.size() && !isFieldSeparator(rest[e]))
        ++e;
    const std::string_view field = rest.substr(b, e - b);
    rest.remove_prefix(e);
    return field;
}

/**
 * The whole of @p field as an unsigned integer under strtoull's
 * base-0 rule (0x hex, leading 0 octal, else decimal), but with no
 * sign: false on a sign, an overflow or any stray byte.
 */
bool
parseUnsignedField(std::string_view field, std::uint64_t &out)
{
    int base = 10;
    if (field.size() > 1 && field[0] == '0') {
        const bool hex = field[1] == 'x' || field[1] == 'X';
        base = hex ? 16 : 8;
        field.remove_prefix(hex ? 2 : 1);
    }
    const char *last = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), last, out, base);
    return ec == std::errc() && ptr == last;
}

/** @p field as a diagnostic prints it, with each NUL byte as \0. */
std::string
shownField(std::string_view field)
{
    std::string out;
    for (const char c : field) {
        if (c == '\0')
            out += "\\0";
        else
            out += c;
    }
    return out;
}

bool
parseAccessType(std::string_view tok, Op &out)
{
    if (tok == "ld" || tok == "load" || tok == "r") {
        out = Op::Load;
        return true;
    }
    if (tok == "st" || tok == "store" || tok == "w") {
        out = Op::Store;
        return true;
    }
    return false;
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // anonymous namespace

bool
parseTextTrace(std::istream &in, const std::string &name, TraceData &out,
               std::string &err)
{
    out = TraceData();
    out.sourceName = name;
    bool saw_tagged = false, saw_untagged = false;

    // Room for the longest line, its '\r' and getline()'s '\0': a
    // longer line fails the read, so none is buffered past the limit.
    char buf[traceMaxLineBytes + 2];
    for (std::size_t lineno = 1;; ++lineno) {
        in.getline(buf, sizeof(buf));
        const auto got = static_cast<std::size_t>(in.gcount());
        if (in.fail() && got == 0)
            break; // end of input
        // gcount() counts the '\n' that ended the line, if one did.
        std::string_view line(buf, in.good() ? got - 1 : got);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        if (in.fail() || line.size() > traceMaxLineBytes) {
            err = csprintf("%s:%zu: line exceeds %zu bytes", name.c_str(),
                           lineno, traceMaxLineBytes);
            return false;
        }
        std::string_view rest = line;
        const std::string_view type_tok = nextField(rest);
        if (type_tok.empty() || type_tok[0] == '#')
            continue; // blank line or comment

        TraceRecord rec;
        if (!parseAccessType(type_tok, rec.op)) {
            err = csprintf("%s:%zu: unknown access type '%s' "
                           "(expected ld/load/r or st/store/w)",
                           name.c_str(), lineno,
                           shownField(type_tok).c_str());
            return false;
        }

        const std::string_view addr_tok = nextField(rest);
        if (addr_tok.empty()) {
            err = csprintf("%s:%zu: missing address", name.c_str(),
                           lineno);
            return false;
        }
        if (!parseUnsignedField(addr_tok, rec.addr)) {
            err = csprintf("%s:%zu: malformed address '%s'",
                           name.c_str(), lineno,
                           shownField(addr_tok).c_str());
            return false;
        }

        const std::string_view cta_tok = nextField(rest);
        if (!cta_tok.empty()) {
            std::uint64_t tag = 0;
            if (!parseUnsignedField(cta_tok, tag) ||
                tag > static_cast<std::uint64_t>(traceMaxCtaTag)) {
                err = csprintf("%s:%zu: malformed CTA tag '%s'",
                               name.c_str(), lineno,
                               shownField(cta_tok).c_str());
                return false;
            }
            rec.cta = static_cast<std::int32_t>(tag);
            saw_tagged = true;
        } else {
            saw_untagged = true;
        }

        const std::string_view extra = nextField(rest);
        if (!extra.empty()) {
            err = csprintf("%s:%zu: trailing garbage '%s'",
                           name.c_str(), lineno,
                           shownField(extra).c_str());
            return false;
        }
        out.records.push_back(rec);
    }

    if (out.records.empty()) {
        err = csprintf("%s: trace contains no records", name.c_str());
        return false;
    }
    if (saw_tagged && saw_untagged) {
        err = csprintf("%s: mixes CTA-tagged and untagged records",
                       name.c_str());
        return false;
    }
    out.ctaTagged = saw_tagged;
    sealTrace(out);
    return true;
}

std::string
packTrace(const TraceData &t)
{
    ByteWriter w;
    w.u8(t.ctaTagged ? 1 : 0);
    w.u64(t.contentHash);
    w.u64(t.records.size());
    w.str(canonicalTraceBytes(t));
    return frameBlob(traceFileMagic, traceFileVersion,
                     std::move(w).take());
}

bool
unpackTrace(std::string_view bytes, const std::string &name,
            TraceData &out, std::string &err)
{
    std::string_view payload;
    if (!unframeBlob(traceFileMagic, traceFileVersion, bytes, payload)) {
        err = csprintf("%s: not a packed trace (bad magic, version, "
                       "checksum, or truncated)",
                       name.c_str());
        return false;
    }
    out = TraceData();
    out.sourceName = name;
    ByteReader r(payload.data(), payload.size());
    out.ctaTagged = r.u8() != 0;
    const std::uint64_t stored_hash = r.u64();
    const std::uint64_t count = r.u64();
    const std::string_view canon = r.strView();
    if (!r.ok() || r.remaining() != 0 ||
        canon.size() != count * canonRecordBytes ||
        !decodeCanonicalRecords(canon, out.ctaTagged, out.records)) {
        err = csprintf("%s: corrupt packed-trace payload", name.c_str());
        return false;
    }
    if (out.records.empty()) {
        err = csprintf("%s: trace contains no records", name.c_str());
        return false;
    }
    sealTrace(out);
    if (out.contentHash != stored_hash) {
        err = csprintf("%s: content hash mismatch (stored %016llx, "
                       "computed %016llx)",
                       name.c_str(),
                       static_cast<unsigned long long>(stored_hash),
                       static_cast<unsigned long long>(out.contentHash));
        return false;
    }
    return true;
}

std::shared_ptr<const TraceData>
loadTraceFile(const std::string &path, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = csprintf("cannot open trace file '%s'", path.c_str());
        return nullptr;
    }
    const std::string name = baseName(path);

    char magic[4] = {};
    in.read(magic, sizeof(magic));
    std::uint32_t head = 0;
    for (int i = 0; i < 4; ++i)
        head |= static_cast<std::uint32_t>(
                    static_cast<unsigned char>(magic[i]))
                << (8 * i);

    auto t = std::make_shared<TraceData>();
    if (in.gcount() == 4 && head == traceFileMagic) {
        // One read into one buffer; the records decode from it in
        // place.
        in.close();
        std::string bytes;
        if (!readFileBytes(path, bytes)) {
            err = csprintf("cannot read trace file '%s'", path.c_str());
            return nullptr;
        }
        if (!unpackTrace(bytes, name, *t, err))
            return nullptr;
        return t;
    }

    in.clear();
    in.seekg(0);
    if (!parseTextTrace(in, name, *t, err))
        return nullptr;
    return t;
}

TraceReplayCursor::TraceReplayCursor(std::shared_ptr<const TraceData> trace_,
                                     int num_ctas, int warps_per_cta,
                                     std::uint64_t cta_seq,
                                     int warp_in_cta,
                                     std::uint32_t line_bytes)
    : trace(std::move(trace_)), line(line_bytes)
{
    bwsim_assert(trace != nullptr, "TraceReplayCursor: null trace");
    bwsim_assert(cta_seq < static_cast<std::uint64_t>(num_ctas) &&
                     warp_in_cta >= 0 && warp_in_cta < warps_per_cta,
                 "TraceReplayCursor: warp %d of CTA %llu is outside a "
                 "%d x %d launch",
                 warp_in_cta, static_cast<unsigned long long>(cta_seq),
                 num_ctas, warps_per_cta);
    if (!trace->ctaTagged) {
        // Record i belongs to global warp i % totalWarps.
        pos = cta_seq * warps_per_cta + warp_in_cta;
        end = trace->records.size();
        step = static_cast<std::size_t>(num_ctas) * warps_per_cta;
        return;
    }
    // The k-th record of this CTA, in file order, belongs to its warp
    // k % warpsPerCta.
    const auto &idx = trace->byCta;
    bwsim_assert(idx.size() == trace->records.size(),
                 "TraceReplayCursor: trace not sealed");
    const auto cta = static_cast<std::int32_t>(cta_seq);
    const auto tag = [this](std::uint32_t i) {
        return trace->records[i].cta;
    };
    const auto first = std::partition_point(
        idx.begin(), idx.end(),
        [&](std::uint32_t i) { return tag(i) < cta; });
    const auto last = std::partition_point(
        first, idx.end(), [&](std::uint32_t i) { return tag(i) == cta; });
    pos = static_cast<std::size_t>(first - idx.begin()) + warp_in_cta;
    end = static_cast<std::size_t>(last - idx.begin());
    step = static_cast<std::size_t>(warps_per_cta);
}

bool
TraceReplayCursor::next(WarpInstData &out)
{
    if (done())
        return false;
    const TraceRecord &rec =
        trace->records[trace->ctaTagged ? trace->byCta[pos] : pos];
    pos += step;
    out.reset();
    out.op = rec.op;
    // Rotate destinations so replayed loads never serialize on a
    // false register dependency.
    out.dest = rec.op == Op::Load
                   ? 1 + static_cast<int>(instSeq % (numModelRegs - 1))
                   : -1;
    out.src = -1;
    out.pc = nextPc();
    out.lineAddrs.push_back(rec.addr & ~static_cast<Addr>(line - 1));
    ++instSeq;
    return true;
}

Addr
TraceReplayCursor::nextPc() const
{
    // A small instruction loop, like the synthetic kernels' bodies.
    return wl_layout::codeBase +
           (instSeq % 64) * wl_layout::instBytes;
}

} // namespace bwsim
