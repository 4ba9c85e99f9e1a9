/**
 * @file
 * DiskSimCache: the persistent on-disk tier behind SimCache, keyed by
 * the same cacheKey() strings as the in-memory tier. One file per
 * (profile, config) pair under a --cache-dir directory, so repeated
 * driver invocations skip warm simulations entirely.
 *
 * File format (common/serdes.hh, little-endian):
 *
 *   u32  magic 'BWSC'
 *   u32  formatVersion (this header's layout)
 *   u32  simResultSerdesVersion (payload layout)
 *   u32  sizeof(GpuConfig)      } the KeyBuilder sizeof trip-wires:
 *   u32  sizeof(BenchmarkProfile) } any struct growth that would
 *   u32  sizeof(SimResult)      } change keys or payloads invalidates
 *                                 persisted entries on this ABI
 *   str  full cache key (guards hash collisions and stale layouts)
 *   u64  FNV-1a checksum of the payload blob
 *   str  payload blob: serializeResult() bytes
 *
 * Writes go to a unique temp file then rename(2) into place, so a
 * crashed or concurrent writer never leaves a half-written entry
 * under the final name. Loads are corruption-tolerant: any short
 * read, bad magic, version or size mismatch, wrong key, or checksum
 * failure is a miss, never an error.
 */

#ifndef BWSIM_CORE_DISK_CACHE_HH
#define BWSIM_CORE_DISK_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "gpu/sim_result.hh"

namespace bwsim
{

class DiskSimCache
{
  public:
    /** Creates @p dir (recursively) if needed; fatal() on failure. */
    explicit DiskSimCache(std::string dir);

    const std::string &dir() const { return dirPath; }

    /**
     * Look @p key up; true and fill @p out on a valid entry. Invalid
     * files (truncated, corrupt, other version/layout, other key) are
     * misses.
     */
    bool load(const std::string &key, SimResult &out) const;

    /**
     * Persist @p r under @p key (write-then-rename). Returns false --
     * after a warn() -- when the filesystem refuses; the sweep goes
     * on, the entry just stays unpersisted.
     */
    bool store(const std::string &key, const SimResult &r) const;

    /** Entry file name for @p key: sc-<fnv1a64(key) hex>.bin. */
    static std::string fileNameFor(const std::string &key);

    static constexpr std::uint32_t formatVersion = 1;

    /** @name Counters (tests and --exec-stats) */
    /**@{*/
    std::uint64_t loadHits() const { return hitCount.load(); }
    std::uint64_t loadMisses() const { return missCount.load(); }
    /** Files present but rejected (corrupt / version or key mismatch);
     *  also counted in loadMisses(). */
    std::uint64_t rejected() const { return rejectCount.load(); }
    std::uint64_t storesSucceeded() const { return storeCount.load(); }
    /**@}*/

  private:
    /** entryDir + fileNameFor(key), joined without fs::path. */
    std::string entryPath(const std::string &key) const;

    std::string dirPath;
    /** dirPath with one trailing '/': every entry path's prefix. */
    std::string entryDir;
    mutable std::atomic<std::uint64_t> hitCount{0};
    mutable std::atomic<std::uint64_t> missCount{0};
    mutable std::atomic<std::uint64_t> rejectCount{0};
    mutable std::atomic<std::uint64_t> storeCount{0};
};

/** Header-valid sc-*.bin entry files of one cache directory. */
struct CacheDirStats
{
    std::uint64_t entries = 0; ///< entry files with a readable header
    std::uint64_t bytes = 0;   ///< their total size
};

/** Scan @p dir (headers only, checksums not verified). */
CacheDirStats scanCacheDir(const std::string &dir);

} // namespace bwsim

#endif // BWSIM_CORE_DISK_CACHE_HH
