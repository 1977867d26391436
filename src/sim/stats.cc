#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "json.hh"
#include "logging.hh"

namespace xpc {

void
Distribution::add(double sample)
{
    samples.push_back(sample);
    runningSum += sample;
    sorted = false;
}

void
Distribution::reset()
{
    samples.clear();
    runningSum = 0;
    sorted = true;
}

void
Distribution::ensureSorted() const
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

namespace {
constexpr double statNaN = std::numeric_limits<double>::quiet_NaN();
} // namespace

double
Distribution::min() const
{
    if (samples.empty())
        return statNaN;
    ensureSorted();
    return samples.front();
}

double
Distribution::max() const
{
    if (samples.empty())
        return statNaN;
    ensureSorted();
    return samples.back();
}

double
Distribution::mean() const
{
    if (samples.empty())
        return statNaN;
    return runningSum / double(samples.size());
}

double
Distribution::quantile(double q) const
{
    panic_if(q < 0 || q > 1, "quantile %f out of [0,1]", q);
    if (samples.empty())
        return statNaN;
    ensureSorted();
    double pos = q * double(samples.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = size_t(std::ceil(pos));
    // q=1 can round pos up to exactly size-1 with ceil still landing
    // there, but floating error (e.g. q=0.999.. * (n-1)) may push hi
    // one past the last sample: clamp both indices into range.
    lo = std::min(lo, samples.size() - 1);
    hi = std::min(hi, samples.size() - 1);
    double frac = pos - double(lo);
    return samples[lo] * (1 - frac) + samples[hi] * frac;
}

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
StatGroup::addDistribution(const std::string &name, Distribution *d)
{
    dists.emplace_back(name, d);
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
    for (auto &[name, d] : dists)
        d->reset();
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

const Distribution *
StatGroup::distribution(const std::string &name) const
{
    for (const auto &[n, d] : dists)
        if (n == name)
            return d;
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

namespace {

/** Only called with count > 0: an empty one dumps {"count":0}. */
void
emitDistJson(std::ostream &os, const Distribution &d)
{
    os << "{\"count\":" << d.count() << ",\"sum\":" << json::num(d.sum())
       << ",\"mean\":" << json::num(d.mean())
       << ",\"min\":" << json::num(d.min())
       << ",\"max\":" << json::num(d.max())
       << ",\"p50\":" << json::num(d.quantile(0.5))
       << ",\"p95\":" << json::num(d.quantile(0.95))
       << ",\"p99\":" << json::num(d.quantile(0.99)) << "}";
}

} // namespace

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
    if (!dists.empty()) {
        os << ",\n" << pad << " \"distributions\":{";
        bool first = true;
        for (const auto &[name, d] : dists) {
            os << (first ? "" : ",") << json::str(name) << ":";
            if (d->count() == 0)
                os << "{\"count\":0}";
            else
                emitDistJson(os, *d);
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
