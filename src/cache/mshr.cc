#include "cache/mshr.hh"

namespace bwsim
{

MshrTable::MshrTable(std::uint32_t num_entries, std::uint32_t max_merge)
    : entries(num_entries), maxMerge(max_merge), keys(num_entries),
      dirty(num_entries), waiters(num_entries)
{
    bwsim_assert(num_entries > 0, "MSHR needs at least one entry");
    bwsim_assert(max_merge > 0, "MSHR merge limit must be positive");
}

int
MshrTable::allocate(Addr line_addr)
{
    bwsim_assert(live < entries, "MSHR allocate on a full table");
    bwsim_assert(!hasEntry(line_addr),
                 "MSHR allocate for already-tracked line 0x%llx",
                 static_cast<unsigned long long>(line_addr));
    keys[live] = line_addr;
    dirty[live] = 0;
    return static_cast<int>(live++);
}

void
MshrTable::addWaiter(int e, const MshrWaiter &waiter)
{
    auto &list = waiters[checked(e)];
    bwsim_assert(list.size() < maxMerge, "MSHR merge past the merge limit");
    list.push_back(waiter);
}

void
MshrTable::fill(int e, std::vector<MshrWaiter> &out)
{
    const std::size_t i = checked(e);
    out.insert(out.end(), waiters[i].begin(), waiters[i].end());
    waiters[i].clear();
    const std::uint32_t last = --live;
    if (i != last) {
        keys[i] = keys[last];
        dirty[i] = dirty[last];
        waiters[i].swap(waiters[last]);
    }
}

std::size_t
MshrTable::totalWaiters() const
{
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < live; ++i)
        n += waiters[i].size();
    return n;
}

} // namespace bwsim
