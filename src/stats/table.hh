/**
 * @file
 * Fixed-width text table and CSV writers used by the benchmark
 * harnesses to print paper-style rows.
 */

#ifndef BWSIM_STATS_TABLE_HH
#define BWSIM_STATS_TABLE_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace bwsim::stats
{

/**
 * A simple column-oriented text table. Columns are sized to their
 * widest cell; numeric cells are pushed with a chosen precision.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row; subsequent add*() calls fill it left to right. */
    TextTable &newRow();

    TextTable &add(const std::string &cell);
    TextTable &add(const char *cell);
    /** @name Numeric cells, byte-identical to printf's "%.*f",
     *  "%lld" and "%.*f%%" (precision in [0, 17]) */
    /**@{*/
    TextTable &addNum(double v, int precision = 2);
    TextTable &addInt(long long v);
    TextTable &addPct(double fraction, int precision = 1);
    /**@}*/

    std::size_t numRows() const { return rows.size(); }

    /** Cell accessor for tests: row-major, header excluded. */
    const std::string &cell(std::size_t row, std::size_t col) const;

    /** Render with aligned columns and a separator under the header. */
    void print(std::ostream &os) const;

    /** Render as CSV (no alignment, comma-separated, quoted as needed). */
    void printCsv(std::ostream &os) const;

    /** Render as TSV (tab-separated; tabs/newlines in cells become
     *  spaces). The machine-readable grid behind the CLI's
     *  --format=tsv, built to be diffed and plotted. */
    void printTsv(std::ostream &os) const;

    /** Render as one single-line JSON object ({"headers": [...],
     *  "rows": [{header: cell, ...}, ...]}); several tables in one
     *  stream form valid JSON Lines. Behind the CLI's --format=json. */
    void printJson(std::ostream &os) const;

  private:
    /** Shared CSV/TSV emitter; @p escape transforms each cell. */
    void printDelimited(
        std::ostream &os, char delim,
        const std::function<std::string(const std::string &)> &escape)
        const;

    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace bwsim::stats

#endif // BWSIM_STATS_TABLE_HH
