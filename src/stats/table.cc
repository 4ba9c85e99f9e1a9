#include "stats/table.hh"

#include <algorithm>
#include <charconv>
#include <iomanip>

#include "common/log.hh"

namespace bwsim::stats
{

TextTable::TextTable(std::vector<std::string> headers)
    : header(std::move(headers))
{
    bwsim_assert(!header.empty(), "a table needs at least one column");
}

TextTable &
TextTable::newRow()
{
    bwsim_assert(rows.empty() || rows.back().size() == header.size(),
                 "previous row has %zu of %zu cells", rows.back().size(),
                 header.size());
    rows.emplace_back();
    return *this;
}

TextTable &
TextTable::add(const std::string &cell)
{
    bwsim_assert(!rows.empty(), "call newRow() before adding cells");
    bwsim_assert(rows.back().size() < header.size(),
                 "row already has %zu cells", header.size());
    rows.back().push_back(cell);
    return *this;
}

TextTable &
TextTable::add(const char *cell)
{
    return add(std::string(cell));
}

namespace
{

/** Widest precision addNum()/addPct() accept. */
constexpr int kMaxPrecision = 17;

/**
 * printf's "%.*f" (plus '%' when @p percent) through std::to_chars,
 * which the standard defines fixed-with-precision to be. The buffer
 * fits the longest double: sign, 309 integer digits, point,
 * kMaxPrecision digits and the '%'.
 */
std::string
fixedCell(double v, int precision, bool percent)
{
    bwsim_assert(precision >= 0 && precision <= kMaxPrecision,
                 "table precision %d outside [0, %d]", precision,
                 kMaxPrecision);
    char buf[1 + 309 + 1 + kMaxPrecision + 1];
    char *end = std::to_chars(buf, buf + sizeof(buf) - 1, v,
                              std::chars_format::fixed, precision)
                    .ptr;
    if (percent)
        *end++ = '%';
    return std::string(buf, end);
}

} // anonymous namespace

TextTable &
TextTable::addNum(double v, int precision)
{
    return add(fixedCell(v, precision, false));
}

TextTable &
TextTable::addInt(long long v)
{
    char buf[24]; // sign + 19 digits
    return add(std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr));
}

TextTable &
TextTable::addPct(double fraction, int precision)
{
    return add(fixedCell(fraction * 100.0, precision, true));
}

const std::string &
TextTable::cell(std::size_t row, std::size_t col) const
{
    return rows.at(row).at(col);
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        width[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(width[c]))
               << row[c];
            if (c + 1 < row.size())
                os << "  ";
        }
        os << "\n";
    };

    emit_row(header);
    std::size_t total = 0;
    for (std::size_t c = 0; c < header.size(); ++c)
        total += width[c] + (c + 1 < header.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        emit_row(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto quote = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string out = "\"";
        for (char ch : s) {
            if (ch == '"')
                out += "\"\"";
            else
                out += ch;
        }
        out += "\"";
        return out;
    };
    printDelimited(os, ',', quote);
}

void
TextTable::printTsv(std::ostream &os) const
{
    // TSV has no quoting convention; backslash-escape the delimiters
    // instead (the IANA/mysqldump convention), symmetric with
    // printCsv's quoting: a tab or newline in a config or benchmark
    // name can neither corrupt the grid nor silently lose data --
    // consumers can round-trip the cell.
    auto escape = [](const std::string &s) {
        if (s.find_first_of("\t\n\r\\") == std::string::npos)
            return s;
        std::string out;
        out.reserve(s.size() + 4);
        for (char ch : s) {
            switch (ch) {
              case '\\':
                out += "\\\\";
                break;
              case '\t':
                out += "\\t";
                break;
              case '\n':
                out += "\\n";
                break;
              case '\r':
                out += "\\r";
                break;
              default:
                out += ch;
            }
        }
        return out;
    };
    printDelimited(os, '\t', escape);
}

void
TextTable::printJson(std::ostream &os) const
{
    auto quote = [](const std::string &s) {
        std::string out = "\"";
        for (char ch : s) {
            switch (ch) {
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
              case '\r':
                out += "\\r";
                break;
              default:
                if (static_cast<unsigned char>(ch) < 0x20)
                    out += csprintf("\\u%04x", ch);
                else
                    out += ch;
            }
        }
        out += "\"";
        return out;
    };

    // One object per table, one row object per data row, keyed by the
    // header -- and everything on a single line, so an invocation
    // printing several tables emits valid JSON Lines.
    os << "{\"headers\":[";
    for (std::size_t c = 0; c < header.size(); ++c) {
        if (c)
            os << ",";
        os << quote(header[c]);
    }
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r)
            os << ",";
        os << "{";
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
            if (c)
                os << ",";
            os << quote(header[c]) << ":" << quote(rows[r][c]);
        }
        os << "}";
    }
    os << "]}\n";
}

void
TextTable::printDelimited(
    std::ostream &os, char delim,
    const std::function<std::string(const std::string &)> &escape) const
{
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << escape(row[c]);
            if (c + 1 < row.size())
                os << delim;
        }
        os << "\n";
    };
    emit_row(header);
    for (const auto &row : rows)
        emit_row(row);
}

} // namespace bwsim::stats
