/**
 * @file
 * KeyBuilder: the one serializer behind GpuConfig::cacheKey() and
 * BenchmarkProfile::cacheKey() (SimCache keys, equality, hashing).
 * Free-form string fields are length-prefixed so a '|' inside one
 * cannot collide with the field delimiter. Both cacheKey()
 * implementations share this builder, so the key format is uniform
 * across the in-memory tier and the on-disk tier
 * (core/disk_cache.hh), which derives its file names from it.
 *
 * Each field is formatted with std::to_chars into a stack buffer and
 * appended to the one reserved key, so building a key costs no printf
 * and no temporary strings. The bytes are those of the historical
 * printf/std::to_string format -- integers in decimal, doubles as
 * "%.17g", which the standard defines to_chars(general, 17) to be --
 * and must stay so: a drift would orphan every persisted cache
 * entry. tests/golden/cache_keys.txt pins them.
 */

#ifndef BWSIM_COMMON_KEY_BUILDER_HH
#define BWSIM_COMMON_KEY_BUILDER_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <utility>

namespace bwsim
{

class KeyBuilder
{
  public:
    explicit KeyBuilder(std::size_t reserve_bytes)
    {
        k.reserve(reserve_bytes);
    }

    /** Length-prefixed: {"a|b","c"} and {"a","b|c"} stay distinct. */
    void
    addStr(const std::string &s)
    {
        integer(s.size());
        k += ':';
        k += s;
        k += '|';
    }

    void
    addU(std::uint64_t v)
    {
        integer(v);
        k += '|';
    }

    void
    addI(long long v)
    {
        integer(v);
        k += '|';
    }

    /** "%.17g": round-trip exact, "-0", "nan", "-inf" included. */
    void
    addF(double v)
    {
        char buf[32]; // at most 24: sign, 17 digits, point, e-308
        k.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 17)
                          .ptr);
        k += '|';
    }

    std::string
    str() &&
    {
        return std::move(k);
    }

  private:
    template <typename Int>
    void
    integer(Int v)
    {
        char buf[24]; // at most 20: 2^64 - 1, or -2^63
        k.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }

    std::string k;
};

} // namespace bwsim

#endif // BWSIM_COMMON_KEY_BUILDER_HH
