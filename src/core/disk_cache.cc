#include "core/disk_cache.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <system_error>

#include "common/atomic_file.hh"
#include "common/log.hh"
#include "common/serdes.hh"
#include "gpu/gpu_config.hh"
#include "workloads/profile.hh"

namespace fs = std::filesystem;

namespace bwsim
{

namespace
{

constexpr std::uint32_t kMagic = 0x43535742; // 'BWSC' little-endian

/** A .part file this old cannot belong to a live writer; eviction
 *  sweeps it as crash debris. */
constexpr double kTempGraceSec = 3600.0;

} // anonymous namespace

DiskSimCache::DiskSimCache(std::string dir) : dirPath(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dirPath, ec);
    if (ec || !fs::is_directory(dirPath))
        fatal("cache dir '%s' cannot be created: %s", dirPath.c_str(),
              ec.message().c_str());
}

std::string
DiskSimCache::fileNameFor(const std::string &key)
{
    return csprintf("sc-%016llx.bin",
                    static_cast<unsigned long long>(fnv1a64(key)));
}

bool
DiskSimCache::load(const std::string &key, SimResult &out) const
{
    const fs::path path = fs::path(dirPath) / fileNameFor(key);

    std::string data;
    if (!readFileBytes(path, data)) {
        ++missCount;
        return false;
    }

    // A zero-length file is what a writer crash before the
    // write-then-rename publish -- or an interrupted copy of the
    // cache directory -- leaves behind. That is an ordinary miss (the
    // entry was never fully written), not corruption of a published
    // entry, so it stays out of rejected().
    if (data.empty()) {
        warn("cache dir '%s': zero-length entry '%s' (interrupted "
             "write?); treating as a miss",
             dirPath.c_str(), fileNameFor(key).c_str());
        ++missCount;
        return false;
    }

    auto reject = [&]() {
        ++missCount;
        ++rejectCount;
        return false;
    };

    // Key compare, checksum and decode all work on the one read
    // buffer in place.
    ByteReader r(data);
    if (r.u32() != kMagic || r.u32() != formatVersion ||
        r.u32() != simResultSerdesVersion ||
        r.u32() != static_cast<std::uint32_t>(sizeof(GpuConfig)) ||
        r.u32() != static_cast<std::uint32_t>(sizeof(BenchmarkProfile)) ||
        r.u32() != static_cast<std::uint32_t>(sizeof(SimResult)))
        return reject();
    if (r.strView() != key || !r.ok())
        return reject();
    const std::uint64_t checksum = r.u64();
    const std::string_view payload = r.strView();
    if (!r.ok() || r.remaining() != 0 || fnv1a64(payload) != checksum)
        return reject();

    ByteReader pr(payload.data(), payload.size());
    if (!deserializeResult(pr, out) || pr.remaining() != 0)
        return reject();

    ++hitCount;
    return true;
}

bool
DiskSimCache::store(const std::string &key, const SimResult &r) const
{
    ByteWriter payload;
    serializeResult(payload, r);

    ByteWriter w;
    w.u32(kMagic);
    w.u32(formatVersion);
    w.u32(simResultSerdesVersion);
    w.u32(static_cast<std::uint32_t>(sizeof(GpuConfig)));
    w.u32(static_cast<std::uint32_t>(sizeof(BenchmarkProfile)));
    w.u32(static_cast<std::uint32_t>(sizeof(SimResult)));
    w.str(key);
    w.u64(fnv1a64(payload.bytes()));
    w.str(payload.bytes());

    // Atomic publish (common/atomic_file.hh): readers see either the
    // previous entry or this one, never a partial file. Last
    // concurrent writer wins, which is fine -- all writers of a key
    // persist identical bytes.
    const fs::path final_path = fs::path(dirPath) / fileNameFor(key);
    if (!atomicWriteFile(final_path, w.bytes())) {
        warn("cache dir '%s': cannot persist '%s'", dirPath.c_str(),
             final_path.filename().c_str());
        return false;
    }
    ++storeCount;
    return true;
}

namespace
{

/** Is @p name an entry file (sc-<hex>.bin)? */
bool
isEntryFileName(const std::string &name)
{
    return name.rfind("sc-", 0) == 0 && name.size() > 7 &&
           name.compare(name.size() - 4, 4, ".bin") == 0;
}

/** First length-prefixed KeyBuilder field of @p key ("N:name|..."). */
std::string
leadingKeyField(const std::string &key)
{
    const std::size_t colon = key.find(':');
    if (colon == std::string::npos || colon == 0 || colon > 20)
        return std::string();
    std::size_t len = 0;
    for (std::size_t i = 0; i < colon; ++i) {
        if (key[i] < '0' || key[i] > '9')
            return std::string();
        len = len * 10 + static_cast<std::size_t>(key[i] - '0');
    }
    if (colon + 1 + len > key.size())
        return std::string();
    return key.substr(colon + 1, len);
}

/**
 * Config name out of an entry file's stored key; empty on any parse
 * failure. Reads only the fixed header plus the key -- never the
 * payload -- so a stats scan of a multi-gigabyte (possibly remote)
 * cache directory transfers kilobytes per entry, not the entries.
 */
std::string
configNameOfEntry(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    char header[7 * 4]; // magic, 5 version/size words, key length
    if (!in || !in.read(header, sizeof(header)))
        return std::string();
    ByteReader r(header, sizeof(header));
    if (r.u32() != kMagic)
        return std::string();
    for (int i = 0; i < 5; ++i)
        r.u32(); // versions and sizeof trip-wires; any value scans
    const std::uint32_t key_len = r.u32();
    if (key_len == 0 || key_len > (1u << 20))
        return std::string();
    std::string key(key_len, '\0');
    if (!in.read(key.data(), key_len))
        return std::string();
    // key = profile cacheKey + '\n' + config cacheKey; the config
    // key leads with the length-prefixed config name.
    const std::size_t nl = key.find('\n');
    if (nl == std::string::npos)
        return std::string();
    return leadingKeyField(key.substr(nl + 1));
}

} // anonymous namespace

CacheDirStats
scanCacheDir(const std::string &dir)
{
    CacheDirStats stats;
    std::map<std::string, CacheDirStats::Group> groups;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        std::error_code fec;
        const std::uint64_t size = fs::file_size(it->path(), fec);
        if (fec)
            continue; // evicted or replaced mid-scan
        if (isTempFileName(name)) {
            ++stats.tempFiles;
            stats.tempBytes += size;
            continue;
        }
        if (!isEntryFileName(name))
            continue;

        const std::string config = configNameOfEntry(it->path());
        if (config.empty()) {
            ++stats.unreadable;
            stats.unreadableBytes += size;
            continue;
        }
        ++stats.entries;
        stats.bytes += size;
        auto &g = groups[config];
        g.config = config;
        ++g.entries;
        g.bytes += size;
    }
    for (auto &[name, g] : groups)
        stats.byConfig.push_back(std::move(g));
    std::sort(stats.byConfig.begin(), stats.byConfig.end(),
              [](const CacheDirStats::Group &a,
                 const CacheDirStats::Group &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  return a.config < b.config;
              });
    return stats;
}

EvictionReport
evictCacheDir(const std::string &dir, std::uint64_t max_bytes)
{
    struct Entry
    {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    EvictionReport report;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const std::string name = it->path().filename().string();
        std::error_code fec;
        if (isTempFileName(name)) {
            // Crash debris: a .part file past the grace period has no
            // live writer behind it and would otherwise accumulate
            // outside the budget forever.
            const auto mtime = fs::last_write_time(it->path(), fec);
            const std::uint64_t size = fs::file_size(it->path(), fec);
            if (fec || std::chrono::duration<double>(now - mtime)
                               .count() <= kTempGraceSec)
                continue;
            std::error_code rec;
            fs::remove(it->path(), rec);
            if (!rec) {
                ++report.filesEvicted;
                report.bytesEvicted += size;
            }
            continue;
        }
        if (!isEntryFileName(name))
            continue;
        const std::uint64_t size = fs::file_size(it->path(), fec);
        const auto mtime = fs::last_write_time(it->path(), fec);
        if (fec)
            continue;
        entries.push_back({it->path(), size, mtime});
        total += size;
    }
    // Oldest last-written first: the atomic publish stamps every
    // entry's mtime at store time, so this is eviction by LRU-write.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });

    for (const Entry &e : entries) {
        if (total > max_bytes) {
            std::error_code rec;
            fs::remove(e.path, rec);
            if (!rec) {
                total -= e.size;
                ++report.filesEvicted;
                report.bytesEvicted += e.size;
                continue;
            }
        }
        ++report.filesKept;
        report.bytesKept += e.size;
    }
    return report;
}

} // namespace bwsim
