/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Components own named statistics grouped into stats::Group objects;
 * groups form a tree that can be dumped as a table at the end of a
 * simulation. Only the functionality bwsim needs is implemented:
 * scalar counters, running averages, and bucketed distributions.
 */

#ifndef BWSIM_STATS_STAT_HH
#define BWSIM_STATS_STAT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"

namespace bwsim::stats
{

class Group;

/** Base class for all statistics: a name, a description, a value. */
class StatBase
{
  public:
    StatBase(Group *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    /** Primary scalar value of this statistic. */
    virtual double value() const = 0;

    /** Reset to the post-construction state. */
    virtual void reset() = 0;

    /** One-line rendering for stat dumps. */
    virtual std::string render() const;

  private:
    std::string statName;
    std::string statDesc;
};

/** A monotonically updated scalar counter. */
class Scalar : public StatBase
{
  public:
    Scalar(Group *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    Scalar &operator++() { ++count; return *this; }
    Scalar &operator+=(std::uint64_t n) { count += n; return *this; }

    std::uint64_t get() const { return count; }
    double value() const override { return static_cast<double>(count); }
    void reset() override { count = 0; }

  private:
    std::uint64_t count = 0;
};

/** Mean of all sampled values (e.g. average memory latency). */
class Average : public StatBase
{
  public:
    Average(Group *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    void
    sample(double v)
    {
        sum += v;
        ++n;
    }

    std::uint64_t samples() const { return n; }
    double value() const override { return n ? sum / n : 0.0; }
    void reset() override { sum = 0.0; n = 0; }

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
};

/**
 * Fixed-bucket distribution over [min, max] with uniform bucket width.
 * Out-of-range samples are clamped into the first/last bucket.
 */
class Distribution : public StatBase
{
  public:
    Distribution(Group *parent, std::string name, std::string desc,
                 double min, double max, unsigned num_buckets);

    void sample(double v, std::uint64_t weight = 1);

    std::uint64_t bucketCount(unsigned i) const { return buckets.at(i); }
    std::uint64_t samples() const { return total; }

    /** Mean of sampled values. */
    double value() const override { return total ? sum / total : 0.0; }
    void reset() override;
    std::string render() const override;

  private:
    double lo, hi, width;
    std::vector<std::uint64_t> buckets;
    std::uint64_t total = 0;
    double sum = 0.0;
};

/**
 * A named view over a plain uint64 counter owned by a component.
 *
 * Hot-path components keep their counters in plain structs (no
 * indirection, no virtual calls per increment) and register bound
 * stats so the counters show up in the tree by name. reset() writes
 * through to the underlying counter.
 */
class BoundScalar : public StatBase
{
  public:
    BoundScalar(Group *parent, std::string name, std::string desc,
                std::uint64_t *source)
        : StatBase(parent, std::move(name), std::move(desc)), src(source)
    {
        bwsim_assert(src, "bound scalar '%s' needs a counter",
                     this->name().c_str());
    }

    std::uint64_t get() const { return *src; }
    double value() const override { return static_cast<double>(*src); }
    void reset() override { *src = 0; }

  private:
    std::uint64_t *src;
};

/** BoundScalar's sibling for double-valued accumulators (latency sums). */
class BoundValue : public StatBase
{
  public:
    BoundValue(Group *parent, std::string name, std::string desc,
               double *source)
        : StatBase(parent, std::move(name), std::move(desc)), src(source)
    {
        bwsim_assert(src, "bound value '%s' needs a source",
                     this->name().c_str());
    }

    double get() const { return *src; }
    double value() const override { return *src; }
    void reset() override { *src = 0.0; }

  private:
    double *src;
};

/**
 * A named view over a fixed array of uint64 counters (stall causes,
 * occupancy bands), with one label per element. The primary value is
 * the element sum.
 */
class BoundVector : public StatBase
{
  public:
    BoundVector(Group *parent, std::string name, std::string desc,
                std::uint64_t *base, std::size_t n,
                std::vector<std::string> element_labels);

    std::size_t size() const { return count; }
    std::uint64_t at(std::size_t i) const;
    const std::string &label(std::size_t i) const;
    std::uint64_t total() const;

    double value() const override
    {
        return static_cast<double>(total());
    }
    void reset() override;
    std::string render() const override;

  private:
    std::uint64_t *base;
    std::size_t count;
    std::vector<std::string> labels;
};

/** A derived statistic computed on demand; reset() is a no-op. */
class Formula : public StatBase
{
  public:
    Formula(Group *parent, std::string name, std::string desc,
            std::function<double()> fn_)
        : StatBase(parent, std::move(name), std::move(desc)),
          fn(std::move(fn_))
    {}

    double value() const override { return fn(); }
    void reset() override {}

  private:
    std::function<double()> fn;
};

/**
 * A node in the statistics tree. Groups record pointers to stats that
 * components own as plain members (declaration order must place the
 * Group before those stats), and can additionally *own* bound stats
 * and child groups created through the bind*()/createChild()
 * factories -- the registration style every simulator component uses.
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);
    ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return groupName; }

    void addStat(StatBase *stat);
    void addChild(Group *child);
    void removeChild(Group *child);

    /** Create a child group owned by (and destroyed with) this group. */
    Group &createChild(std::string name);

    /** @name Owned-stat factories (views over component counters) */
    /**@{*/
    BoundScalar &bindScalar(std::string name, std::string desc,
                            std::uint64_t &src);
    BoundValue &bindValue(std::string name, std::string desc, double &src);
    BoundVector &bindVector(std::string name, std::string desc,
                            std::uint64_t *base, std::size_t n,
                            std::vector<std::string> labels);
    Formula &formula(std::string name, std::string desc,
                     std::function<double()> fn);
    /**@}*/

    /** Direct child by exact name; null when absent. */
    const Group *child(const std::string &name) const;
    /** Stat of this group by exact name; null when absent. */
    const StatBase *stat(const std::string &name) const;

    /** Recursively reset every stat in this subtree. */
    void resetAll();

    /** Recursively print "path.stat value # desc" lines. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    const std::vector<Group *> &children() const { return kids; }

  private:
    std::string groupName;
    Group *parent;
    std::vector<StatBase *> statsVec;
    std::vector<Group *> kids;
    std::vector<std::unique_ptr<StatBase>> ownedStats;
    std::vector<std::unique_ptr<Group>> ownedKids;
};

/** @name Tree queries (the declarative harvest layer)
 *
 * Patterns are '.'-separated paths below @p root; each segment names a
 * child exactly, or -- with a trailing '*' -- every child whose name
 * starts with the prefix ("core*", "part*.l2b*"). Matching groups are
 * returned in registration order, which components guarantee is
 * construction order, so floating-point aggregation over a query is
 * deterministic.
 */
/**@{*/
std::vector<const Group *> findGroups(const Group &root,
                                      const std::string &pattern);

/** Sum of an exactly-typed stat over @p groups; panics on a missing
 *  stat or a type mismatch (loud failure beats silent zeros). */
std::uint64_t sumScalar(const std::vector<const Group *> &groups,
                        const std::string &stat);
double sumValue(const std::vector<const Group *> &groups,
                const std::string &stat);
/** Sum of element @p idx of a BoundVector stat over @p groups. */
std::uint64_t sumVectorAt(const std::vector<const Group *> &groups,
                          const std::string &stat, std::size_t idx);
/**@}*/

} // namespace bwsim::stats

#endif // BWSIM_STATS_STAT_HH
