#include "core/disk_cache.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
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

/** Length of an entry file name: "sc-", 16 hex digits, ".bin". */
constexpr std::size_t kEntryNameLen = 23;

/** The entry file name for @p key, sc-<fnv1a64(key) hex>.bin, into
 *  @p name (not NUL-terminated): the bytes of "sc-%016llx.bin". */
void
formatEntryName(const std::string &key, char (&name)[kEntryNameLen])
{
    static constexpr char hex[] = "0123456789abcdef";
    std::uint64_t h = fnv1a64(key);
    std::memcpy(name, "sc-", 3);
    for (std::size_t i = 3 + 16; i-- > 3; h >>= 4)
        name[i] = hex[h & 0xf];
    std::memcpy(name + 3 + 16, ".bin", 4);
}

} // anonymous namespace

DiskSimCache::DiskSimCache(std::string dir) : dirPath(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dirPath, ec);
    if (ec || !fs::is_directory(dirPath))
        fatal("cache dir '%s' cannot be created: %s", dirPath.c_str(),
              ec.message().c_str());
    entryDir = dirPath;
    if (entryDir.back() != '/')
        entryDir += '/';
}

std::string
DiskSimCache::fileNameFor(const std::string &key)
{
    char name[kEntryNameLen];
    formatEntryName(key, name);
    return std::string(name, sizeof(name));
}

std::string
DiskSimCache::entryPath(const std::string &key) const
{
    char name[kEntryNameLen];
    formatEntryName(key, name);
    std::string path;
    path.reserve(entryDir.size() + sizeof(name));
    path += entryDir;
    path.append(name, sizeof(name));
    return path;
}

bool
DiskSimCache::load(const std::string &key, SimResult &out) const
{
    const std::string path = entryPath(key);

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
             dirPath.c_str(), path.c_str() + entryDir.size());
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
    const std::string path = entryPath(key);
    if (!atomicWriteFile(path, w.bytes())) {
        warn("cache dir '%s': cannot persist '%s'", dirPath.c_str(),
             path.c_str() + entryDir.size());
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

/**
 * True when @p path starts with an entry header: the magic, the five
 * version and size words, and a key of sane length that is all there.
 * Reads only the header and the key, never the payload.
 */
bool
hasEntryHeader(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    char header[7 * 4]; // magic, 5 version/size words, key length
    if (!in || !in.read(header, sizeof(header)))
        return false;
    ByteReader r(header, sizeof(header));
    if (r.u32() != kMagic)
        return false;
    for (int i = 0; i < 5; ++i)
        r.u32(); // versions and sizeof trip-wires; any value scans
    const std::uint32_t key_len = r.u32();
    if (key_len == 0 || key_len > (1u << 20))
        return false;
    std::string key(key_len, '\0');
    return static_cast<bool>(in.read(key.data(), key_len));
}

} // anonymous namespace

CacheDirStats
scanCacheDir(const std::string &dir)
{
    CacheDirStats stats;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!isEntryFileName(it->path().filename().string()))
            continue;
        std::error_code fec;
        const std::uint64_t size = fs::file_size(it->path(), fec);
        if (fec || !hasEntryHeader(it->path()))
            continue; // replaced mid-scan, or not an entry
        ++stats.entries;
        stats.bytes += size;
    }
    return stats;
}

} // namespace bwsim
