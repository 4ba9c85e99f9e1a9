/**
 * @file
 * Crash-safe file publishing for the persistent SimCache tier.
 * Writes go to a unique tmp-<pid>-<seq>.part file in the target
 * directory, then rename(2) into place, so readers observe either
 * the previous file or the complete new one -- never a partial
 * write. A crashed writer can orphan a .part file; no reader looks
 * at that name, so it is inert.
 */

#ifndef BWSIM_COMMON_ATOMIC_FILE_HH
#define BWSIM_COMMON_ATOMIC_FILE_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "common/log.hh"

#ifdef __unix__
#include <unistd.h>
#endif

namespace bwsim
{

/**
 * Whole file as bytes; false when unreadable (e.g. concurrently
 * renamed away). Reads are unbuffered. The first 4 KiB chunk lands
 * on the stack, so a file that fits -- a cache entry -- costs one
 * fread() and no stat. Only a file that fills the chunk asks for its
 * size, and its rest is read straight into @p out, sized one byte
 * over the file; one that grew meanwhile, or one without a size (a
 * pipe), doubles the buffer until a read comes up short.
 */
inline bool
readFileBytes(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::setvbuf(f, nullptr, _IONBF, 0);
    char chunk[4096];
    std::size_t n = std::fread(chunk, 1, sizeof(chunk), f);
    if (n < sizeof(chunk)) {
        out.assign(chunk, n); // end of file, or an error
    } else {
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(path, ec);
        out.resize(ec || size < n ? 2 * n
                                  : static_cast<std::size_t>(size) + 1);
        std::memcpy(out.data(), chunk, n);
        for (;;) {
            n += std::fread(out.data() + n, 1, out.size() - n, f);
            if (n < out.size())
                break; // end of file, or an error
            out.resize(2 * out.size());
        }
        out.resize(n);
    }
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        out.clear();
    return ok;
}

/**
 * Publish @p bytes at @p final_path via write-then-rename. Returns
 * false (leaving no temp debris it could still remove) when the
 * filesystem refuses; callers decide whether that is warn- or
 * fatal-worthy.
 */
inline bool
atomicWriteFile(const std::filesystem::path &final_path,
                const std::string &bytes)
{
    // Process-wide sequence: several writers may share one directory
    // (and one pid), so per-call uniqueness needs a global counter.
    static std::atomic<std::uint64_t> tmp_seq{0};
#ifdef __unix__
    const std::uint32_t pid = static_cast<std::uint32_t>(::getpid());
#else
    const std::uint32_t pid = 0;
#endif
    const std::filesystem::path tmp_path =
        final_path.parent_path() /
        csprintf("tmp-%u-%llu.part", pid,
                 static_cast<unsigned long long>(tmp_seq.fetch_add(1)));
    {
        std::ofstream tmp(tmp_path, std::ios::binary | std::ios::trunc);
        if (!tmp)
            return false;
        tmp.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        tmp.flush();
        if (!tmp) {
            std::error_code ec;
            std::filesystem::remove(tmp_path, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        std::filesystem::remove(tmp_path, ec);
        return false;
    }
    return true;
}

} // namespace bwsim

#endif // BWSIM_COMMON_ATOMIC_FILE_HH
