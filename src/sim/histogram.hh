/**
 * @file
 * Fixed-memory log-bucketed latency histogram (HDR-histogram style):
 * the simulator's one distribution type. The stat registry
 * (sim/stats.hh), the per-phase cycle stats (sim/phase.hh), the
 * critical-path aggregates (sim/critpath.hh) and the benches'
 * latency tables all record into it.
 *
 * record() is O(1), and memory is a fixed ~15 KB bucket array however
 * many samples a run records; it allocates its ~15 KB at the first
 * sample, so a histogram that never fires holds none. min, max, count,
 * sum and mean are exact. A quantile is the nearest-rank sample's
 * bucket, reported as that bucket's upper bound clamped into
 * [min, max], so it is within 2^-subBucketBits (~3.1%) of the exact
 * sample and quantile(0) and quantile(1) are exactly min and max.
 *
 * Bucketing: values below 2^subBucketBits land in unit-width buckets
 * (exact); above that, each power-of-two range is split into
 * 2^subBucketBits equal sub-buckets, so bucket width scales with
 * magnitude and the relative error stays constant across the full
 * 64-bit range. This is the gem5 Stats / HdrHistogram layout.
 *
 * merge() adds another histogram bucket-wise; because the layout is
 * static, merging is exact and associative - shards can fold their
 * per-core histograms in any order and reach byte-identical state.
 *
 * Empty-histogram queries are defined: min/max/mean/quantile return
 * NaN, never panic, so registry dumps can probe stats that happened
 * not to fire; q outside [0, 1] is a caller bug and panics.
 */

#ifndef XPC_SIM_HISTOGRAM_HH
#define XPC_SIM_HISTOGRAM_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace xpc {

class Histogram
{
  public:
    /** Sub-buckets per power of two; relative error is 2^-this. */
    static constexpr uint32_t subBucketBits = 5;
    static constexpr uint64_t subBucketCount = uint64_t(1)
                                               << subBucketBits;
    /** Unit buckets + subBucketCount per exponent in [bits, 63]. */
    static constexpr size_t bucketCount =
        size_t(subBucketCount) * (65 - subBucketBits);

    /** Record one sample of @p value cycles. O(1). */
    void record(uint64_t value) { recordN(value, 1); }

    /** Record @p n samples of the same @p value. */
    void recordN(uint64_t value, uint64_t n);

    /** Fold @p other into this histogram (exact, associative). */
    void merge(const Histogram &other);

    void reset();

    uint64_t count() const { return total; }
    double sum() const { return double(sumValues); }

    /** Exact moments; NaN when empty. */
    double min() const;
    double max() const;
    double mean() const;

    /**
     * The q-quantile for q in [0, 1]: the smallest recorded bucket
     * boundary at or above rank ceil(q * count), clamped into
     * [min, max] so quantile(0) == min() and quantile(1) == max()
     * exactly. NaN when empty; q outside [0, 1] panics.
     */
    double quantile(double q) const;

    /** Raw bucket count (tests / exporters). */
    uint64_t
    bucketValue(size_t index) const
    {
        return buckets.empty() ? 0 : buckets[index];
    }

    /** Smallest / largest value mapping to bucket @p index. */
    static uint64_t bucketLow(size_t index);
    static uint64_t bucketHigh(size_t index);
    /** The bucket @p value lands in. */
    static size_t bucketIndex(uint64_t value);

    /**
     * One-line JSON summary {"count":...,"sum":...,"mean":...,
     * "min":...,"max":...,"p50":...,"p99":...,"p999":...} with
     * non-finite values (the empty histogram) mapped to null,
     * matching the BENCH json convention.
     */
    void summaryJson(std::ostream &os) const;

  private:
    std::vector<uint64_t> buckets; ///< empty until the first sample
    uint64_t total = 0;
    uint64_t sumValues = 0;
    uint64_t minValue = ~uint64_t(0);
    uint64_t maxValue = 0;
};

} // namespace xpc

#endif // XPC_SIM_HISTOGRAM_HH
