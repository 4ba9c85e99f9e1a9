#include "workloads/trace_source.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "common/serdes.hh"
#include "workloads/trace_gen.hh"

namespace bwsim
{

namespace
{

/** Fixed canonical record width: u8 op + u64 addr + u32 cta. */
constexpr std::size_t canonRecordBytes = 13;

/** Rebuild records from canonical bytes; false on any malformation. */
bool
decodeCanonicalRecords(const std::string &canon,
                       std::vector<TraceRecord> &out)
{
    if (canon.size() % canonRecordBytes != 0)
        return false;
    const std::size_t count = canon.size() / canonRecordBytes;
    out.clear();
    out.resize(count);
    ByteReader r(canon);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t op = r.u8();
        if (op > 1)
            return false;
        out[i].op = op ? Op::Store : Op::Load;
        out[i].addr = r.u64();
        out[i].cta = static_cast<std::int32_t>(r.u32()) - 1;
    }
    return r.ok();
}

bool
parseAccessType(const std::string &tok, Op &out)
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

    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.size() > traceMaxLineBytes) {
            err = csprintf("%s:%zu: line exceeds %zu bytes", name.c_str(),
                           lineno, traceMaxLineBytes);
            return false;
        }
        std::istringstream toks(line);
        std::string type_tok;
        if (!(toks >> type_tok) || type_tok[0] == '#')
            continue; // blank line or comment

        TraceRecord rec;
        if (!parseAccessType(type_tok, rec.op)) {
            err = csprintf("%s:%zu: unknown access type '%s' "
                           "(expected ld/load/r or st/store/w)",
                           name.c_str(), lineno, type_tok.c_str());
            return false;
        }

        std::string addr_tok;
        if (!(toks >> addr_tok)) {
            err = csprintf("%s:%zu: missing address", name.c_str(),
                           lineno);
            return false;
        }
        char *end = nullptr;
        errno = 0;
        rec.addr = std::strtoull(addr_tok.c_str(), &end, 0);
        if (errno != 0 || end == addr_tok.c_str() || *end != '\0') {
            err = csprintf("%s:%zu: malformed address '%s'",
                           name.c_str(), lineno, addr_tok.c_str());
            return false;
        }

        std::string cta_tok;
        if (toks >> cta_tok) {
            errno = 0;
            const unsigned long long tag =
                std::strtoull(cta_tok.c_str(), &end, 0);
            if (errno != 0 || end == cta_tok.c_str() || *end != '\0' ||
                tag > 0x7fffffffull) {
                err = csprintf("%s:%zu: malformed CTA tag '%s'",
                               name.c_str(), lineno, cta_tok.c_str());
                return false;
            }
            rec.cta = static_cast<std::int32_t>(tag);
            saw_tagged = true;
        } else {
            saw_untagged = true;
        }

        std::string extra;
        if (toks >> extra) {
            err = csprintf("%s:%zu: trailing garbage '%s'",
                           name.c_str(), lineno, extra.c_str());
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
unpackTrace(const std::string &bytes, const std::string &name,
            TraceData &out, std::string &err)
{
    std::string payload;
    if (!unframeBlob(traceFileMagic, traceFileVersion, bytes, payload)) {
        err = csprintf("%s: not a packed trace (bad magic, version, "
                       "checksum, or truncated)",
                       name.c_str());
        return false;
    }
    out = TraceData();
    out.sourceName = name;
    ByteReader r(payload);
    out.ctaTagged = r.u8() != 0;
    const std::uint64_t stored_hash = r.u64();
    const std::uint64_t count = r.u64();
    const std::string canon = r.str();
    if (!r.ok() || r.remaining() != 0 ||
        canon.size() != count * canonRecordBytes ||
        !decodeCanonicalRecords(canon, out.records)) {
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
        std::ostringstream rest;
        rest.write(magic, 4);
        rest << in.rdbuf();
        if (!unpackTrace(rest.str(), name, *t, err))
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
    : trace(std::move(trace_)), warpsPerCta(warps_per_cta),
      ctaSeq(cta_seq), warpInCta(warp_in_cta),
      globalWarp(cta_seq * warps_per_cta + warp_in_cta),
      totalWarps(static_cast<std::uint64_t>(num_ctas) * warps_per_cta),
      line(line_bytes)
{
    bwsim_assert(trace != nullptr, "TraceReplayCursor: null trace");
    seek();
}

void
TraceReplayCursor::seek()
{
    const auto &recs = trace->records;
    while (pos < recs.size()) {
        const std::size_t i = pos++;
        bool mine;
        if (trace->ctaTagged) {
            if (recs[i].cta != static_cast<std::int32_t>(ctaSeq))
                continue;
            mine = tagMatches % warpsPerCta ==
                   static_cast<std::uint64_t>(warpInCta);
            ++tagMatches;
        } else {
            mine = i % totalWarps == globalWarp;
        }
        if (mine) {
            cur = i;
            curValid = true;
            return;
        }
    }
    curValid = false;
}

bool
TraceReplayCursor::next(WarpInstData &out)
{
    if (!curValid)
        return false;
    const TraceRecord &rec = trace->records[cur];
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
    seek();
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
