#include "histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "json.hh"
#include "logging.hh"

namespace xpc {

namespace {

constexpr double histNaN = std::numeric_limits<double>::quiet_NaN();

} // namespace

size_t
Histogram::bucketIndex(uint64_t value)
{
    if (value < subBucketCount)
        return size_t(value);
    uint32_t exp = 63 - uint32_t(__builtin_clzll(value));
    uint64_t mantissa =
        (value >> (exp - subBucketBits)) - subBucketCount;
    return size_t(subBucketCount +
                  uint64_t(exp - subBucketBits) * subBucketCount +
                  mantissa);
}

uint64_t
Histogram::bucketLow(size_t index)
{
    if (index < subBucketCount)
        return index;
    uint64_t shift = (index - subBucketCount) / subBucketCount;
    uint64_t mantissa = (index - subBucketCount) % subBucketCount;
    return (subBucketCount + mantissa) << shift;
}

uint64_t
Histogram::bucketHigh(size_t index)
{
    if (index < subBucketCount)
        return index;
    uint64_t shift = (index - subBucketCount) / subBucketCount;
    return bucketLow(index) + ((uint64_t(1) << shift) - 1);
}

void
Histogram::recordN(uint64_t value, uint64_t n)
{
    if (n == 0)
        return;
    buckets.resize(bucketCount); // allocates at the first sample only
    buckets[bucketIndex(value)] += n;
    total += n;
    sumValues += value * n;
    minValue = std::min(minValue, value);
    maxValue = std::max(maxValue, value);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.total == 0)
        return;
    buckets.resize(bucketCount);
    for (size_t i = 0; i < bucketCount; i++)
        buckets[i] += other.buckets[i];
    total += other.total;
    sumValues += other.sumValues;
    minValue = std::min(minValue, other.minValue);
    maxValue = std::max(maxValue, other.maxValue);
}

void
Histogram::reset()
{
    buckets.assign(buckets.size(), 0);
    total = 0;
    sumValues = 0;
    minValue = ~uint64_t(0);
    maxValue = 0;
}

double
Histogram::min() const
{
    return total == 0 ? histNaN : double(minValue);
}

double
Histogram::max() const
{
    return total == 0 ? histNaN : double(maxValue);
}

double
Histogram::mean() const
{
    return total == 0 ? histNaN : double(sumValues) / double(total);
}

double
Histogram::quantile(double q) const
{
    panic_if(q < 0 || q > 1, "quantile %f out of [0,1]", q);
    if (total == 0)
        return histNaN;
    // Rank of the wanted sample, 1-based; q=0 wants the first.
    uint64_t rank = uint64_t(std::ceil(q * double(total)));
    rank = std::max<uint64_t>(rank, 1);
    rank = std::min(rank, total);
    uint64_t seen = 0;
    for (size_t i = 0; i < bucketCount; i++) {
        seen += buckets[i];
        if (seen >= rank) {
            // Report the bucket's upper bound (the value every
            // sample in it is <=), clamped into the exact observed
            // range so the endpoints stay exact.
            uint64_t v = bucketHigh(i);
            v = std::max(v, minValue);
            v = std::min(v, maxValue);
            return double(v);
        }
    }
    return double(maxValue); // unreachable: seen reaches total
}

void
Histogram::summaryJson(std::ostream &os) const
{
    os << "{\"count\":" << total << ",\"sum\":" << json::num(sum())
       << ",\"mean\":" << json::num(mean())
       << ",\"min\":" << json::num(min())
       << ",\"max\":" << json::num(max())
       << ",\"p50\":" << json::num(quantile(0.5))
       << ",\"p99\":" << json::num(quantile(0.99))
       << ",\"p999\":" << json::num(quantile(0.999)) << "}";
}

} // namespace xpc
