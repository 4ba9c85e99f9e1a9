#include "core/backend.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <new>
#include <thread>

#include "common/log.hh"
#include "common/serdes.hh"
#include "core/sim_cache.hh"
#include "sim/sim_speed.hh"
#include "sim/tick_profile.hh"

#ifdef __unix__
#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace bwsim
{

std::vector<SimResult>
ThreadedBackend::runAll(const std::vector<RunSpec> &specs, int threads)
{
    std::vector<SimResult> results(specs.size());
    if (specs.empty())
        return results;

    unsigned n_threads = threads > 0
                             ? static_cast<unsigned>(threads)
                             : std::max(1u,
                                        std::thread::hardware_concurrency());
    n_threads = std::min<unsigned>(n_threads,
                                   static_cast<unsigned>(specs.size()));

    if (n_threads <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            results[i] = runOne(specs[i].workload, specs[i].config);
        return results;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= specs.size())
                return;
            results[i] = runOne(specs[i].workload, specs[i].config);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    return results;
}

std::vector<SimResult>
CachingBackend::runAll(const std::vector<RunSpec> &specs, int threads)
{
    return cache.runAll(specs, threads);
}

#ifdef __unix__

namespace
{

using Claims = std::atomic<std::size_t>;
static_assert(Claims::is_always_lock_free,
              "the claim counter is shared between processes");

bool
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * A child's whole life: claim indices until the batch runs out and
 * send each result as one frame: a u32 length, then the u64 index,
 * the serializeResult() bytes and the simulation's share of the
 * --exec-stats totals, which die with the child. That share is the
 * simSpeedTotals() delta and, under --profile-ticks, the
 * tickProfileTotals() delta.
 */
[[noreturn]] void
childMain(const std::vector<RunSpec> &specs, Claims &next, int fd)
{
    try {
        for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
            const SimSpeedTotals speed0 = simSpeedTotals();
            const auto ticks0 = tickProfileTotals();
            ByteWriter body;
            body.u64(i);
            serializeResult(body,
                            runOne(specs[i].workload, specs[i].config));
            const SimSpeedTotals speed1 = simSpeedTotals();
            body.u64(speed1.coreCycles - speed0.coreCycles);
            body.u64(speed1.tickedEdges - speed0.tickedEdges);
            body.u64(speed1.sleptCoreCycles - speed0.sleptCoreCycles);
            body.u64(speed1.sleptL2Ticks - speed0.sleptL2Ticks);
            body.u64(speed1.sleptDramTicks - speed0.sleptDramTicks);
            body.u64(speed1.wallNanos - speed0.wallNanos);
            if (tickProfileEnabled()) {
                // First-seen order only appends, so domain d of the
                // earlier snapshot is domain d of the later one.
                const auto ticks1 = tickProfileTotals();
                body.u32(static_cast<std::uint32_t>(ticks1.size()));
                for (std::size_t d = 0; d < ticks1.size(); ++d) {
                    const bool seen = d < ticks0.size();
                    body.str(ticks1[d].domain);
                    body.u64(ticks1[d].ticks - (seen ? ticks0[d].ticks : 0));
                    body.u64(ticks1[d].nanos - (seen ? ticks0[d].nanos : 0));
                }
            }
            ByteWriter frame;
            frame.str(body.bytes());
            if (!writeAll(fd, frame.bytes()))
                ::_exit(1);
        }
    } catch (...) {
        ::_exit(1);
    }
    ::_exit(0);
}

/** Decode the complete frames at the front of @p buf into @p out. */
void
takeFrames(std::string &buf, std::vector<SimResult> &out,
           std::vector<bool> &got, std::size_t &received)
{
    std::size_t off = 0;
    while (buf.size() - off >= 4) {
        ByteReader len_reader(buf.data() + off, 4);
        const std::uint32_t len = len_reader.u32();
        if (buf.size() - off - 4 < len)
            break;
        ByteReader r(buf.data() + off + 4, len);
        const std::uint64_t i = r.u64();
        if (!r.ok() || i >= out.size() || got[i])
            fatal("--jobs: a worker sent result index %llu for a "
                  "batch of %zu",
                  static_cast<unsigned long long>(i), out.size());
        const bool result_ok = deserializeResult(r, out[i]);
        const std::uint64_t core_cycles = r.u64(), ticked_edges = r.u64(),
                            slept_core = r.u64(), slept_l2 = r.u64(),
                            slept_dram = r.u64(), wall_nanos = r.u64();
        std::vector<TickProfileDomainTotals> ticks;
        if (tickProfileEnabled()) {
            for (std::uint32_t n = r.u32(); n > 0 && r.ok(); --n) {
                TickProfileDomainTotals d;
                d.domain = r.str();
                d.ticks = r.u64();
                d.nanos = r.u64();
                ticks.push_back(std::move(d));
            }
        }
        if (!result_ok || !r.ok() || r.remaining() != 0)
            fatal("--jobs: a worker sent a malformed result for "
                  "index %llu",
                  static_cast<unsigned long long>(i));
        recordSimSpeed(core_cycles, ticked_edges, slept_core, slept_l2,
                       slept_dram, wall_nanos);
        for (const auto &d : ticks)
            recordTickProfile(d.domain, d.ticks, d.nanos);
        got[i] = true;
        ++received;
        off += 4 + len;
    }
    buf.erase(0, off);
}

} // anonymous namespace

std::vector<SimResult>
ForkBackend::runAll(const std::vector<RunSpec> &specs, int threads)
{
    (void)threads; // each child runs one simulation at a time
    std::vector<SimResult> results(specs.size());
    if (specs.empty())
        return results;

    void *page = ::mmap(nullptr, sizeof(Claims), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED)
        fatal("--jobs: cannot map the claim counter: %s",
              std::strerror(errno));
    const auto unmap = [](Claims *c) { ::munmap(c, sizeof(Claims)); };
    std::unique_ptr<Claims, decltype(unmap)> next(new (page) Claims(0),
                                                  unmap);

    // fork() copies only the calling thread. That is the thread that
    // called SimCache::runAll(), and no other thread is alive at this
    // point: the experiments run on the main thread, and under --jobs
    // no thread pool starts. So no child inherits a lock that a
    // vanished thread holds. Children _exit() without flushing stdio,
    // but a fatal() in one would flush a copy of anything still
    // buffered here.
    std::fflush(nullptr);
    const std::size_t n_children =
        std::min(static_cast<std::size_t>(std::max(maxChildren, 1)),
                 specs.size());
    [[maybe_unused]] const pid_t parent = ::getpid();
    std::vector<pid_t> pids;
    std::vector<pollfd> fds;
    for (std::size_t c = 0; c < n_children; ++c) {
        int p[2];
        if (::pipe(p) != 0)
            fatal("--jobs: cannot create a pipe: %s", std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("--jobs: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            ::close(p[0]);
            for (const pollfd &f : fds)
                ::close(f.fd);
#ifdef __linux__
            // A parent that dies (a fatal(), a signal) must not leave
            // its children simulating.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (::getppid() != parent)
                ::_exit(1);
#endif
            childMain(specs, *next, p[1]);
        }
        ::close(p[1]);
        pids.push_back(pid);
        fds.push_back({p[0], POLLIN, 0});
    }

    // A child that dies closes its pipe, so every read end reaches
    // end-of-file and this loop ends without a timeout.
    std::vector<std::string> bufs(n_children);
    std::vector<bool> got(specs.size(), false);
    std::size_t received = 0;
    std::size_t open = n_children;
    char chunk[1 << 16];
    while (open > 0) {
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            fatal("--jobs: poll failed: %s", std::strerror(errno));
        }
        for (std::size_t c = 0; c < fds.size(); ++c) {
            if (fds[c].fd < 0 || fds[c].revents == 0)
                continue;
            const ssize_t n = ::read(fds[c].fd, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n > 0) {
                bufs[c].append(chunk, static_cast<std::size_t>(n));
                takeFrames(bufs[c], results, got, received);
                continue;
            }
            ::close(fds[c].fd);
            fds[c].fd = -1; // poll() skips negative descriptors
            --open;
        }
    }

    bool ok = received == specs.size();
    for (pid_t pid : pids) {
        int status = 0;
        pid_t reaped;
        do
            reaped = ::waitpid(pid, &status, 0);
        while (reaped < 0 && errno == EINTR);
        ok = ok && reaped == pid && WIFEXITED(status) &&
             WEXITSTATUS(status) == 0;
    }
    if (!ok)
        fatal("a --jobs worker failed");
    return results;
}

#endif // __unix__

} // namespace bwsim
