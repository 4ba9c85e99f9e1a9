/**
 * @file
 * ExecutionBackend: the pluggable seam between "which simulations do
 * the experiments need" and "how do they get executed". The seed's
 * hardwired thread pool is now one implementation (ThreadedBackend);
 * the memoizing SimCache front is another (CachingBackend); the
 * --jobs process fan-out is a third (ForkBackend).
 */

#ifndef BWSIM_CORE_BACKEND_HH
#define BWSIM_CORE_BACKEND_HH

#include <string>
#include <vector>

#include "core/dse.hh"

namespace bwsim
{

class SimCache;

/** Executes batches of simulations; results come back in spec order. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Human-readable identity for logs and --exec-stats. */
    virtual std::string name() const = 0;

    /**
     * Run every spec; results in spec order. @p threads is advisory
     * (0 = hardware concurrency); backends without an in-process
     * thread pool ignore it.
     */
    virtual std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads = 0) = 0;
};

/**
 * The in-process thread pool: up to @p threads host threads per call,
 * 0 meaning hardware concurrency.
 */
class ThreadedBackend : public ExecutionBackend
{
  public:
    std::string name() const override { return "threaded"; }

    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0) override;
};

/**
 * Memoizing front over a SimCache (in-memory tier plus whatever disk
 * tier the cache is configured with); misses go to the cache's
 * simulation backend. This is what the experiment framework
 * runs through.
 */
class CachingBackend : public ExecutionBackend
{
  public:
    explicit CachingBackend(SimCache &cache) : cache(cache) {}

    std::string name() const override { return "caching"; }

    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0) override;

  private:
    SimCache &cache;
};

#ifdef __unix__
/**
 * The --jobs=N fan-out: every runAll() forks min(N, specs) children,
 * which inherit the batch in memory, claim spec indices one at a time
 * from a shared counter, and send each result back over their own
 * pipe. @p threads is ignored: each child runs one simulation at a
 * time. A child that dies fails the run with a fatal(), never a hang.
 */
class ForkBackend : public ExecutionBackend
{
  public:
    explicit ForkBackend(int max_children) : maxChildren(max_children) {}

    std::string name() const override { return "fork"; }

    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0) override;

  private:
    int maxChildren;
};
#endif // __unix__

} // namespace bwsim

#endif // BWSIM_CORE_BACKEND_HH
