/**
 * @file
 * Bounded queues and delay pipes: the building blocks of every buffer
 * in the modelled memory system (Fig. 2 of the paper).
 *
 * BoundedQueue models a finite FIFO whose fullness is what creates
 * back-pressure. TimedQueue additionally enforces a minimum residency
 * (pipeline latency) before an entry may be popped. Both expose their
 * occupancy so congestion monitors can build usage-lifetime histograms.
 *
 * All three sit on a power-of-two Ring. Bounded queues size it once,
 * at construction; a DelayPipe starts without storage and doubles its
 * ring when a push finds it full. Push and pop are an index mask and
 * a move -- they never allocate (past a pipe's high-water mark) and
 * never chase a block map.
 */

#ifndef BWSIM_SIM_QUEUE_HH
#define BWSIM_SIM_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace bwsim
{

/** FIFO storage on a power-of-two ring; the owner checks room. */
template <typename T>
class Ring
{
  public:
    Ring() = default;
    /** A ring with room for at least @p min_slots entries. */
    explicit Ring(std::size_t min_slots)
    {
        std::size_t n = 1;
        while (n < min_slots)
            n <<= 1;
        buf.resize(n);
        mask = n - 1;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    /** Entries the ring holds before it must grow. */
    std::size_t slots() const { return buf.size(); }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    const T &back() const { return buf[(head + count - 1) & mask]; }

    /** Append @p v; requires size() < slots(). */
    void
    push(T v)
    {
        buf[(head + count) & mask] = std::move(v);
        ++count;
    }

    T
    pop()
    {
        T v = std::move(buf[head]);
        head = (head + 1) & mask;
        --count;
        return v;
    }

    /** Double the storage (4 slots from empty), keeping FIFO order. */
    void
    grow()
    {
        std::vector<T> next(buf.empty() ? 4 : 2 * buf.size());
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move(buf[(head + i) & mask]);
        buf = std::move(next);
        head = 0;
        mask = buf.size() - 1;
    }

  private:
    std::vector<T> buf;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
};

/** A finite FIFO; push fails (returns false) when full. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : cap(capacity), q(capacity)
    {
        bwsim_assert(capacity > 0, "queue capacity must be positive");
    }

    bool full() const { return q.size() >= cap; }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return cap; }

    /** Space left before the queue back-pressures. */
    std::size_t free() const { return cap - q.size(); }

    bool
    push(T v)
    {
        if (full())
            return false;
        q.push(std::move(v));
        return true;
    }

    T &front() { return q.front(); }
    const T &front() const { return q.front(); }

    T
    pop()
    {
        bwsim_assert(!q.empty(), "pop from empty queue");
        return q.pop();
    }

  private:
    std::size_t cap;
    Ring<T> q;
};

/**
 * A finite FIFO whose entries become poppable only once the owning
 * domain's cycle reaches their ready time. Models a fixed-latency
 * pipeline stage feeding a bounded buffer.
 */
template <typename T>
class TimedQueue
{
  public:
    explicit TimedQueue(std::size_t capacity) : cap(capacity), q(capacity)
    {
        bwsim_assert(capacity > 0, "queue capacity must be positive");
    }

    bool full() const { return q.size() >= cap; }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return cap; }

    bool
    push(T v, Cycle ready)
    {
        if (full())
            return false;
        // FIFO order dominates: an entry can never be popped before its
        // predecessor, so clamping ready times to be monotone preserves
        // semantics while allowing out-of-order push deadlines.
        if (!q.empty() && q.back().second > ready)
            ready = q.back().second;
        q.push({std::move(v), ready});
        return true;
    }

    /** True if the head entry exists and is ready at @p now. */
    bool
    ready(Cycle now) const
    {
        return !q.empty() && q.front().second <= now;
    }

    T &front() { return q.front().first; }
    const T &front() const { return q.front().first; }
    Cycle frontReady() const { return q.front().second; }

    T
    pop()
    {
        bwsim_assert(!q.empty(), "pop from empty queue");
        return q.pop().first;
    }

  private:
    std::size_t cap;
    Ring<std::pair<T, Cycle>> q;
};

/** An unbounded delay pipe: entries emerge after a per-entry latency. */
template <typename T>
class DelayPipe
{
  public:
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }

    void
    push(T v, Cycle ready)
    {
        // See TimedQueue::push: clamp to preserve FIFO pop order.
        if (!q.empty() && q.back().second > ready)
            ready = q.back().second;
        if (q.size() == q.slots())
            q.grow();
        q.push({std::move(v), ready});
    }

    bool
    ready(Cycle now) const
    {
        return !q.empty() && q.front().second <= now;
    }

    T &front() { return q.front().first; }
    const T &front() const { return q.front().first; }
    /** Ready time of the head entry (requires non-empty). */
    Cycle frontReady() const { return q.front().second; }

    T
    pop()
    {
        bwsim_assert(!q.empty(), "pop from empty pipe");
        return q.pop().first;
    }

  private:
    Ring<std::pair<T, Cycle>> q;
};

} // namespace bwsim

#endif // BWSIM_SIM_QUEUE_HH
