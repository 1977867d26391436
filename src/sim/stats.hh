/**
 * @file
 * Lightweight statistics: scalar counters, a weighted CDF and the
 * stat registry.
 *
 * Every architectural component owns its stats; benches read them to
 * regenerate the paper's tables and figures. The design mirrors gem5's
 * Stats package at a much smaller scale: stats are named, registerable
 * into a StatGroup, and resettable between experiment phases.
 *
 * StatGroups form a tree (system -> machine -> mem -> l1d0, ...);
 * each component owns its group and registers its counters and
 * histograms (sim/histogram.hh, the one distribution type) by name in
 * its constructor. The root dumps the whole hierarchy as one JSON
 * document, and resetAll() clears every stat below a node so
 * experiments can measure phases independently.
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
 * Counter/Histogram members (the hot-path increment stays a bare
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
    void addHistogram(const std::string &name, Histogram *h);

    /** Reset every registered stat in this subtree. */
    void resetAll();

    /** Find a registered counter by name (this group only). */
    const Counter *counter(const std::string &name) const;
    /** Find a direct child group by name. */
    const StatGroup *child(const std::string &name) const;

    /** Registered stats in registration order (exporters walk these). */
    const std::vector<std::pair<std::string, Counter *>> &
    counterEntries() const
    {
        return counters;
    }
    const std::vector<std::pair<std::string, Histogram *>> &
    histogramEntries() const
    {
        return hists;
    }
    /** Always empty: every distribution is a Histogram. Kept only
     *  because perfbench/common.cc still walks it. */
    const std::vector<std::pair<std::string, Histogram *>> &
    distributionEntries() const
    {
        static const std::vector<std::pair<std::string, Histogram *>>
            none;
        return none;
    }

    /**
     * Dump this subtree as one JSON object:
     * {"name": ..., "counters": {...}, "histograms": {...},
     *  "children": [...]}, each histogram as its one-line summary
     *  (Histogram::summaryJson). A section appears only when it has
     *  an entry.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

  private:
    std::string groupName;
    StatGroup *parentGroup = nullptr;
    std::vector<StatGroup *> kids;
    std::vector<std::pair<std::string, Counter *>> counters;
    std::vector<std::pair<std::string, Histogram *>> hists;
};

} // namespace xpc

#endif // XPC_SIM_STATS_HH
