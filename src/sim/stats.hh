/**
 * @file
 * Lightweight statistics: scalar counters, distributions and CDFs.
 *
 * Every architectural component owns its stats; benches read them to
 * regenerate the paper's tables and figures. The design mirrors gem5's
 * Stats package at a much smaller scale: stats are named, registerable
 * into a StatGroup, and resettable between experiment phases.
 *
 * StatGroups form a tree (system -> machine -> mem -> l1d0, ...);
 * each component owns its group and registers its counters and
 * distributions by name in its constructor. The root dumps the whole
 * hierarchy as one JSON document, and resetAll() clears every
 * stat below a node so experiments can measure phases independently.
 */

#ifndef XPC_SIM_STATS_HH
#define XPC_SIM_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/histogram.hh"

namespace xpc {

/** Monotonic scalar event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(uint64_t n = 1) { total += n; }
    void reset() { total = 0; }
    uint64_t value() const { return total; }

  private:
    uint64_t total = 0;
};

/**
 * Sample distribution with mean/min/max and quantile queries.
 *
 * Keeps all samples; experiments are short enough that exactness is
 * cheaper than bucketing bugs.
 *
 * Empty-distribution queries are defined: min/max/mean/quantile all
 * return NaN (never panic), so registry dumps and dashboards can
 * probe stats that happened not to fire. quantile(0) is the minimum
 * and quantile(1) the maximum; q outside [0, 1] is a caller bug and
 * panics.
 */
class Distribution
{
  public:
    void add(double sample);
    void reset();

    size_t count() const { return samples.size(); }
    double min() const;
    double max() const;
    double mean() const;
    double sum() const { return runningSum; }

    /**
     * @return the (linearly interpolated) q-quantile for q in [0, 1]:
     *         quantile(0) == min(), quantile(1) == max(), NaN when
     *         the distribution is empty.
     */
    double quantile(double q) const;

  private:
    mutable std::vector<double> samples;
    mutable bool sorted = false;
    double runningSum = 0;

    void ensureSorted() const;
};

/**
 * Weighted CDF over a small set of discrete categories, e.g. "IPC time
 * by message length" in the paper's Figure 1(b).
 */
class WeightedCdf
{
  public:
    /** Accumulate @p weight into the bucket keyed by @p key. */
    void add(uint64_t key, double weight);

    /** @return cumulative weight fraction at or below @p key. */
    double cumulativeAt(uint64_t key) const;

    /** @return total accumulated weight. */
    double totalWeight() const;

    void reset() { buckets.clear(); }

  private:
    std::map<uint64_t, double> buckets;
};

/**
 * One node of the hierarchical stat registry.
 *
 * A StatGroup does not own the stats it names: components keep their
 * Counter/Distribution members (the hot-path increment stays a bare
 * add) and register pointers here. Groups attach to a parent to form
 * the dump tree; a group detaches itself on destruction, and a dying
 * parent orphans its children, so component destruction order never
 * leaves dangling edges.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return groupName; }
    void setName(std::string name) { groupName = std::move(name); }

    /** Re-parent this group (nullptr detaches). */
    void setParent(StatGroup *parent);
    StatGroup *parent() const { return parentGroup; }
    const std::vector<StatGroup *> &children() const { return kids; }

    /** Register @p c under @p name (pointer must outlive the group). */
    void addCounter(const std::string &name, Counter *c);
    void addDistribution(const std::string &name, Distribution *d);
    void addHistogram(const std::string &name, Histogram *h);

    /** Reset every registered stat in this subtree. */
    void resetAll();

    /** Find a registered counter by name (this group only). */
    const Counter *counter(const std::string &name) const;
    const Distribution *distribution(const std::string &name) const;
    /** Find a direct child group by name. */
    const StatGroup *child(const std::string &name) const;

    /** Registered stats in registration order (exporters walk these). */
    const std::vector<std::pair<std::string, Counter *>> &
    counterEntries() const
    {
        return counters;
    }
    const std::vector<std::pair<std::string, Distribution *>> &
    distributionEntries() const
    {
        return dists;
    }
    const std::vector<std::pair<std::string, Histogram *>> &
    histogramEntries() const
    {
        return hists;
    }

    /**
     * Dump this subtree as one JSON object:
     * {"name": ..., "counters": {...}, "distributions": {...},
     *  "histograms": {...}, "children": [...]}. Distributions emit
     *  count, sum, mean, min/max and p50/p95/p99 (moments omitted
     *  when empty), each number rendered by json::num; histograms
     *  emit their one-line summary. The
     *  histograms section appears only when at least one histogram
     *  is registered, so groups that never use them dump exactly as
     *  before.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

  private:
    std::string groupName;
    StatGroup *parentGroup = nullptr;
    std::vector<StatGroup *> kids;
    std::vector<std::pair<std::string, Counter *>> counters;
    std::vector<std::pair<std::string, Distribution *>> dists;
    std::vector<std::pair<std::string, Histogram *>> hists;
};

} // namespace xpc

#endif // XPC_SIM_STATS_HH
