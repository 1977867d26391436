/**
 * @file
 * Tail-latency telemetry tests: the fixed-memory Histogram, the
 * windowed TimeSeries, and a seeded open-loop LoadGen soak whose
 * whole JSON document must be byte-identical across same-seed runs.
 * Labeled `load` (not tier1): the soak drives thousands of requests
 * through the full supervised mesh.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "apps/loadgen.hh"
#include "sim/histogram.hh"
#include "sim/timeseries.hh"

namespace xpc {
namespace {

TEST(HistogramTest, SmallValuesLandInExactUnitBuckets)
{
    // Below 2^subBucketBits every value gets its own unit-width
    // bucket: no quantization at all in the range that matters for
    // sub-call-granularity phases.
    for (uint64_t v = 0; v < Histogram::subBucketCount; v++) {
        size_t idx = Histogram::bucketIndex(v);
        EXPECT_EQ(Histogram::bucketLow(idx), v);
        EXPECT_EQ(Histogram::bucketHigh(idx), v);
    }
}

TEST(HistogramTest, BucketBoundariesTileTheRange)
{
    // Consecutive buckets must tile [0, 2^63...] with no gaps or
    // overlaps: high(i) + 1 == low(i+1), and every value maps into
    // the bucket whose [low, high] contains it.
    for (size_t i = 0; i + 1 < Histogram::bucketCount; i++)
        EXPECT_EQ(Histogram::bucketHigh(i) + 1,
                  Histogram::bucketLow(i + 1))
            << "gap after bucket " << i;

    for (uint64_t v :
         {uint64_t(31), uint64_t(32), uint64_t(33), uint64_t(1023),
          uint64_t(1024), uint64_t(1) << 40,
          (uint64_t(1) << 40) + 12345, ~uint64_t(0)}) {
        size_t idx = Histogram::bucketIndex(v);
        EXPECT_GE(v, Histogram::bucketLow(idx)) << v;
        EXPECT_LE(v, Histogram::bucketHigh(idx)) << v;
    }
}

TEST(HistogramTest, RelativeErrorIsBounded)
{
    // The documented contract: the bucket boundary reported for any
    // value is within 2^-subBucketBits (~3.1%) of the value.
    const double rel = 1.0 / double(Histogram::subBucketCount);
    for (uint64_t v = 1; v < (uint64_t(1) << 40); v = v * 3 + 7) {
        size_t idx = Histogram::bucketIndex(v);
        double high = double(Histogram::bucketHigh(idx));
        EXPECT_LE(high - double(v), double(v) * rel + 1) << v;
    }
}

TEST(HistogramTest, ExactMomentsAndClampedQuantiles)
{
    Histogram h;
    for (uint64_t v = 1; v <= 1000; v++)
        h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    // Quantile endpoints clamp to the exact extremes.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
    // Interior quantiles carry the ~3.1% bucket error.
    EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 / 32 + 1);
    EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 / 32 + 1);

    // One sample answers every quantile, though its bucket is wider
    // than one cycle: the clamp into [min, max] makes it exact.
    Histogram one;
    one.record(4242);
    for (double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(one.quantile(q), 4242.0) << "q=" << q;

    // Nearest rank over duplicates: 99 fives and one ten put every
    // quantile up to rank 99 on the fives and p999 (rank 100) on 10.
    Histogram dup;
    dup.recordN(5, 99);
    dup.record(10);
    EXPECT_DOUBLE_EQ(dup.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(dup.quantile(0.99), 5.0);
    EXPECT_DOUBLE_EQ(dup.quantile(0.999), 10.0);
}

TEST(HistogramTest, EmptyQueriesAreNaNAndSummaryIsNull)
{
    Histogram h;
    EXPECT_TRUE(std::isnan(h.min()));
    EXPECT_TRUE(std::isnan(h.max()));
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    std::ostringstream os;
    h.summaryJson(os);
    EXPECT_NE(os.str().find("\"p50\":null"), std::string::npos);
    EXPECT_NE(os.str().find("\"count\":0"), std::string::npos);
}

TEST(HistogramTest, QuantileOutOfRangePanics)
{
    Histogram h;
    h.record(1);
    EXPECT_DEATH(h.quantile(-0.1), "quantile");
    EXPECT_DEATH(h.quantile(1.1), "quantile");

    // q just below 1 is in range: its rank must not run past the
    // last sample, and the answer stays inside [min, max].
    Histogram seven;
    for (uint64_t v = 1; v <= 7; v++)
        seven.record(v * 1000);
    double v = seven.quantile(0.9999999999999999);
    EXPECT_GE(v, seven.min());
    EXPECT_LE(v, seven.max());
}

TEST(HistogramTest, MergeIsExactAndAssociative)
{
    Histogram a, b, c;
    for (uint64_t v = 1; v < 5000; v += 3)
        a.record(v);
    for (uint64_t v = 2; v < 9000; v += 5)
        b.record(v * 17);
    c.recordN(123456, 40);

    // (a + b) + c ...
    Histogram left = a;
    left.merge(b);
    left.merge(c);
    // ... == a + (b + c).
    Histogram right = b;
    right.merge(c);
    Histogram right2 = a;
    right2.merge(right);

    EXPECT_EQ(left.count(), a.count() + b.count() + c.count());
    EXPECT_DOUBLE_EQ(left.sum(), a.sum() + b.sum() + c.sum());
    EXPECT_DOUBLE_EQ(left.min(), right2.min());
    EXPECT_DOUBLE_EQ(left.max(), right2.max());
    for (size_t i = 0; i < Histogram::bucketCount; i++)
        ASSERT_EQ(left.bucketValue(i), right2.bucketValue(i));

    std::ostringstream lo, ro;
    left.summaryJson(lo);
    right2.summaryJson(ro);
    EXPECT_EQ(lo.str(), ro.str());
}

TEST(HistogramTest, ResetClears)
{
    Histogram h;
    h.recordN(99, 7);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.min()));
}

TEST(TimeSeriesTest, CountersAccumulateAndRollOverWindows)
{
    TimeSeries ts(Cycles(100));
    auto ch = ts.counterChannel("reqs");
    ts.add(ch, 5);
    ts.add(ch, 99, 2);
    ts.add(ch, 100); // first cycle of window 1
    ts.add(ch, 350); // skips window 2 entirely
    ASSERT_EQ(ts.windowCount(), 4u);
    EXPECT_DOUBLE_EQ(ts.at(ch, 0), 3.0);
    EXPECT_DOUBLE_EQ(ts.at(ch, 1), 1.0);
    EXPECT_DOUBLE_EQ(ts.at(ch, 2), 0.0); // empty counter window = 0
    EXPECT_DOUBLE_EQ(ts.at(ch, 3), 1.0);
}

TEST(TimeSeriesTest, GaugesCarryForwardAndStartAsNaN)
{
    TimeSeries ts(Cycles(100));
    auto g = ts.gaugeChannel("depth");
    auto c = ts.counterChannel("ticks");
    ts.add(c, 10);      // window 0 exists but the gauge is unsampled
    ts.sample(g, 150, 4); // window 1
    ts.sample(g, 199, 7); // last sample in the window wins
    ts.add(c, 399);       // stretch to window 3
    ASSERT_EQ(ts.windowCount(), 4u);
    EXPECT_TRUE(std::isnan(ts.at(g, 0))); // before first sample
    EXPECT_DOUBLE_EQ(ts.at(g, 1), 7.0);
    EXPECT_DOUBLE_EQ(ts.at(g, 2), 7.0); // carried forward
    EXPECT_DOUBLE_EQ(ts.at(g, 3), 7.0);
}

TEST(TimeSeriesTest, ChannelsAreFoundByNameAndKindChecked)
{
    TimeSeries ts(Cycles(10));
    auto a = ts.counterChannel("x");
    auto b = ts.counterChannel("x");
    EXPECT_EQ(a, b);
    EXPECT_DEATH(ts.gaugeChannel("x"), "x");
}

TEST(TimeSeriesTest, DumpJsonIsStableAndNullsNaN)
{
    TimeSeries ts(Cycles(100));
    auto g = ts.gaugeChannel("depth");
    auto c = ts.counterChannel("reqs");
    ts.add(c, 0);
    ts.sample(g, 150, 2.5);
    std::ostringstream os;
    ts.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"window_cycles\":100"), std::string::npos);
    EXPECT_NE(json.find("\"windows\":2"), std::string::npos);
    // Gauge window 0 predates the first sample: null, not NaN.
    EXPECT_NE(json.find("\"depth\":[null,2.5]"), std::string::npos);
    EXPECT_NE(json.find("\"reqs\":[1,0]"), std::string::npos);
    // Creation order: depth before reqs.
    EXPECT_LT(json.find("depth"), json.find("reqs"));
}

TEST(TimeSeriesTest, ResetKeepsChannelsDropsValues)
{
    TimeSeries ts(Cycles(10));
    auto c = ts.counterChannel("n");
    ts.add(c, 25);
    ts.reset();
    EXPECT_EQ(ts.windowCount(), 0u);
    EXPECT_EQ(ts.counterChannel("n"), c);
}

/** Seeded soak: the full open-loop run is a function of its seed. */
TEST(LoadGenTest, SameSeedRunsAreByteIdentical)
{
    apps::LoadGenOptions o;
    o.requests = 800;
    o.offeredPerMcycle = 250; // past the per-service admission knee
    auto run = [&]() {
        apps::LoadGen gen(o);
        std::ostringstream os;
        gen.run().dumpJson(os);
        return os.str();
    };
    std::string a = run();
    std::string b = run();
    EXPECT_EQ(a, b) << "same-seed loadgen JSON diverged";

    o.seed = 43;
    EXPECT_NE(run(), a) << "seed is not reaching the schedule";
}

TEST(LoadGenTest, JsonEscapesMarkNames)
{
    const std::string odd = "a\"b\\c\n";
    apps::LoadGenOptions o;
    o.phases = {{100, 10, odd}};
    apps::LoadGenResult res(o);
    res.marks.push_back({odd, 0});
    std::ostringstream os;
    res.dumpJson(os);
    EXPECT_NE(os.str().find(",\"mark\":\"a\\\"b\\\\c\\n\"}"),
              std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("{\"name\":\"a\\\"b\\\\c\\n\","),
              std::string::npos)
        << os.str();
}

TEST(LoadGenTest, OutcomesPartitionTheSchedule)
{
    apps::LoadGenOptions o;
    o.requests = 600;
    o.offeredPerMcycle = 120;
    apps::LoadGen gen(o);
    const apps::LoadGenResult &res = gen.run();

    uint64_t sum = 0;
    for (size_t i = 0; i < apps::loadOutcomeCount; i++)
        sum += res.counts[i];
    EXPECT_EQ(sum, o.requests);
    EXPECT_EQ(res.offered, o.requests);
    EXPECT_GT(res.goodput(), 0u);
    // Every request leaves a latency sample, abandoned ones
    // included (theirs is the time the caller waited before
    // hanging up).
    EXPECT_EQ(res.latencyAll.count(), o.requests);
    // Per-service histograms partition the per-request samples.
    uint64_t per_service = 0;
    for (const Histogram &h : res.latencyService)
        per_service += h.count();
    EXPECT_EQ(per_service, res.latencyAll.count());
    // ... and so do the per-outcome histograms.
    uint64_t per_outcome = 0;
    for (const Histogram &h : res.latencyOutcome)
        per_outcome += h.count();
    EXPECT_EQ(per_outcome, res.latencyAll.count());
}

TEST(LoadGenTest, FailureStatusPicksTheOutcomeLane)
{
    using apps::LoadOutcome;
    using core::TransportStatus;
    // The four statuses with a lane of their own...
    EXPECT_EQ(apps::loadOutcomeOf(TransportStatus::Overloaded),
              LoadOutcome::Shed);
    EXPECT_EQ(apps::loadOutcomeOf(TransportStatus::DeadlineExpired),
              LoadOutcome::Timeout);
    EXPECT_EQ(apps::loadOutcomeOf(TransportStatus::Timeout),
              LoadOutcome::Timeout);
    EXPECT_EQ(apps::loadOutcomeOf(TransportStatus::BreakerOpen),
              LoadOutcome::Breaker);
    // ...and every other failure rides the error lane, detected
    // corruption and a spent retry budget included.
    int own_lane = 0;
    for (auto st = uint32_t(TransportStatus::Ok);
         st <= uint32_t(TransportStatus::IntegrityViolation); st++) {
        own_lane += apps::loadOutcomeOf(TransportStatus(st)) !=
                    LoadOutcome::Error;
    }
    EXPECT_EQ(own_lane, 4);
    EXPECT_EQ(apps::loadOutcomeOf(TransportStatus::IntegrityViolation),
              LoadOutcome::Error);
    EXPECT_EQ(apps::loadOutcomeOf(TransportStatus::RetryBudgetExhausted),
              LoadOutcome::Error);
}

TEST(LoadGenTest, UnderloadedMeshServesEverything)
{
    apps::LoadGenOptions o;
    o.requests = 300;
    o.offeredPerMcycle = 40; // far below capacity
    apps::LoadGen gen(o);
    const apps::LoadGenResult &res = gen.run();
    EXPECT_EQ(res.goodput(), o.requests);
    EXPECT_EQ(res.counts[size_t(apps::LoadOutcome::Abandoned)], 0u);
}

} // namespace
} // namespace xpc
