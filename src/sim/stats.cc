#include "stats.hh"

#include <algorithm>
#include <ostream>

#include "json.hh"

namespace xpc {

void
WeightedCdf::add(uint64_t key, double weight)
{
    buckets[key] += weight;
}

double
WeightedCdf::totalWeight() const
{
    double total = 0;
    for (const auto &[key, w] : buckets)
        total += w;
    return total;
}

double
WeightedCdf::cumulativeAt(uint64_t key) const
{
    double total = totalWeight();
    if (total == 0)
        return 0;
    double below = 0;
    for (const auto &[k, w] : buckets) {
        if (k > key)
            break;
        below += w;
    }
    return below / total;
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : groupName(std::move(name))
{
    setParent(parent);
}

StatGroup::~StatGroup()
{
    setParent(nullptr);
    for (StatGroup *kid : kids)
        kid->parentGroup = nullptr;
}

void
StatGroup::setParent(StatGroup *parent)
{
    if (parentGroup) {
        auto &sibs = parentGroup->kids;
        sibs.erase(std::remove(sibs.begin(), sibs.end(), this),
                   sibs.end());
    }
    parentGroup = parent;
    if (parentGroup)
        parentGroup->kids.push_back(this);
}

void
StatGroup::addCounter(const std::string &name, Counter *c)
{
    counters.emplace_back(name, c);
}

void
StatGroup::addHistogram(const std::string &name, Histogram *h)
{
    hists.emplace_back(name, h);
}

void
StatGroup::resetAll()
{
    for (auto &[name, c] : counters)
        c->reset();
    for (auto &[name, h] : hists)
        h->reset();
    for (StatGroup *kid : kids)
        kid->resetAll();
}

const Counter *
StatGroup::counter(const std::string &name) const
{
    for (const auto &[n, c] : counters)
        if (n == name)
            return c;
    return nullptr;
}

const StatGroup *
StatGroup::child(const std::string &name) const
{
    for (const StatGroup *kid : kids)
        if (kid->groupName == name)
            return kid;
    return nullptr;
}

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    const std::string pad(size_t(indent), ' ');
    os << pad << "{\"name\":" << json::str(groupName);
    if (!counters.empty()) {
        os << ",\n" << pad << " \"counters\":{";
        bool first = true;
        for (const auto &[name, c] : counters) {
            os << (first ? "" : ",") << json::str(name) << ":"
               << c->value();
            first = false;
        }
        os << "}";
    }
    if (!hists.empty()) {
        os << ",\n" << pad << " \"histograms\":{";
        bool first = true;
        for (const auto &[name, h] : hists) {
            os << (first ? "" : ",") << json::str(name) << ":";
            h->summaryJson(os);
            first = false;
        }
        os << "}";
    }
    if (!kids.empty()) {
        os << ",\n" << pad << " \"children\":[\n";
        for (size_t i = 0; i < kids.size(); i++) {
            kids[i]->dumpJson(os, indent + 2);
            os << (i + 1 < kids.size() ? ",\n" : "\n");
        }
        os << pad << " ]";
    }
    os << "}";
}

} // namespace xpc
