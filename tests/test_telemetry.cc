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
#include <cstring>
#include <deque>
#include <limits>
#include <sstream>

#include "apps/loadgen.hh"
#include "sim/histogram.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/request.hh"
#include "sim/timeseries.hh"
#include "sim/trace.hh"

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

TEST(TimeSeriesTest, CounterTracksExportNaNAsZeroAndClampHugeValues)
{
    req::RequestContext ctx;
    trace::Tracer tracer{ctx};
    tracer.setCapacity(64);
    tracer.setEnabled(true);
    TimeSeries ts(Cycles(100));
    auto nan = ts.gaugeChannel("nan");
    auto big = ts.gaugeChannel("big");
    ts.sample(big, 50, 1e30);
    ts.sample(nan, 150, std::numeric_limits<double>::quiet_NaN());
    ts.exportCounterTracks(tracer, 3);

    auto evs = tracer.events();
    ASSERT_EQ(evs.size(), 4u);
    const struct
    {
        const char *name;
        uint64_t ts, value;
    } want[4] = {
        {"nan", 0, 0},   // before the first sample, as ever
        {"nan", 100, 0}, // sampled NaN
        {"big", 0, std::numeric_limits<uint64_t>::max()},
        {"big", 100, std::numeric_limits<uint64_t>::max()},
    };
    for (size_t i = 0; i < 4; i++) {
        EXPECT_EQ(evs[i].kind, trace::EventKind::Counter) << i;
        EXPECT_STREQ(evs[i].name, want[i].name) << i;
        EXPECT_EQ(evs[i].ts, want[i].ts) << i;
        EXPECT_EQ(evs[i].arg, want[i].value) << i;
        EXPECT_EQ(evs[i].tid, 3u) << i;
    }
}

/**
 * Reference model: TimeSeries as it was before its windows were
 * stored at the narrowest exact width, one double per window per
 * channel plus a byte per gauge window marking its samples, with
 * gauges scanning back for their last sample. Copied verbatim but for
 * the name, the doc comments and the members the sweep does not call
 * (windowCycles, findChannel, exportCounterTracks). The real series
 * must return the same bits from every query and write the same JSON
 * bytes.
 */
class RefTimeSeries
{
  public:
    using ChannelId = size_t;

    explicit RefTimeSeries(Cycles window_cycles);

    ChannelId counterChannel(const std::string &name);
    ChannelId gaugeChannel(const std::string &name);
    void add(ChannelId ch, uint64_t t, double n = 1);
    void sample(ChannelId ch, uint64_t t, double v);
    size_t windowCount() const;
    double at(ChannelId ch, size_t w) const;
    void reset();
    void dumpJson(std::ostream &os, int indent = 0) const;

  private:
    struct Channel
    {
        std::string name;
        bool isGauge = false;
        std::vector<double> vals;
        std::vector<uint8_t> seen; ///< gauge: window has a sample
    };

    ChannelId makeChannel(const std::string &name, bool gauge);
    void ensureWindow(Channel &ch, size_t w);

    uint64_t window;
    /** deque: stable element addresses for the exported name ptrs. */
    std::deque<Channel> channels;
};

constexpr double tsNaN = std::numeric_limits<double>::quiet_NaN();

RefTimeSeries::RefTimeSeries(Cycles window_cycles)
    : window(window_cycles.value())
{
    panic_if(window == 0, "time-series window must be non-zero");
}

RefTimeSeries::ChannelId
RefTimeSeries::makeChannel(const std::string &name, bool gauge)
{
    for (size_t i = 0; i < channels.size(); i++) {
        if (channels[i].name == name) {
            panic_if(channels[i].isGauge != gauge,
                     "channel '%s' redefined with a different kind",
                     name.c_str());
            return i;
        }
    }
    Channel ch;
    ch.name = name;
    ch.isGauge = gauge;
    channels.push_back(std::move(ch));
    return channels.size() - 1;
}

RefTimeSeries::ChannelId
RefTimeSeries::counterChannel(const std::string &name)
{
    return makeChannel(name, false);
}

RefTimeSeries::ChannelId
RefTimeSeries::gaugeChannel(const std::string &name)
{
    return makeChannel(name, true);
}

void
RefTimeSeries::ensureWindow(Channel &ch, size_t w)
{
    if (ch.vals.size() <= w) {
        ch.vals.resize(w + 1, 0);
        if (ch.isGauge)
            ch.seen.resize(w + 1, 0);
    }
}

void
RefTimeSeries::add(ChannelId ch, uint64_t t, double n)
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    Channel &c = channels[ch];
    panic_if(c.isGauge, "add() on gauge channel '%s'", c.name.c_str());
    size_t w = size_t(t / window);
    ensureWindow(c, w);
    c.vals[w] += n;
}

void
RefTimeSeries::sample(ChannelId ch, uint64_t t, double v)
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    Channel &c = channels[ch];
    panic_if(!c.isGauge, "sample() on counter channel '%s'",
             c.name.c_str());
    size_t w = size_t(t / window);
    ensureWindow(c, w);
    c.vals[w] = v;
    c.seen[w] = 1;
}

size_t
RefTimeSeries::windowCount() const
{
    size_t n = 0;
    for (const Channel &c : channels)
        n = std::max(n, c.vals.size());
    return n;
}

double
RefTimeSeries::at(ChannelId ch, size_t w) const
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    const Channel &c = channels[ch];
    if (!c.isGauge)
        return w < c.vals.size() ? c.vals[w] : 0;
    // Gauge: last sample at or before window w carries forward.
    size_t lim = std::min(w + 1, c.vals.size());
    for (size_t i = lim; i-- > 0;)
        if (c.seen[i])
            return c.vals[i];
    return tsNaN;
}

void
RefTimeSeries::reset()
{
    for (Channel &c : channels) {
        c.vals.clear();
        c.seen.clear();
    }
}

void
RefTimeSeries::dumpJson(std::ostream &os, int indent) const
{
    size_t n = windowCount();
    const std::string pad(size_t(indent), ' ');
    os << pad << "{\"window_cycles\":" << window << ",\"windows\":" << n
       << ",\n"
       << pad << " \"channels\":{";
    bool first_ch = true;
    for (size_t ch = 0; ch < channels.size(); ch++) {
        if (!first_ch)
            os << ",";
        first_ch = false;
        os << "\n" << pad << "  " << json::str(channels[ch].name) << ":[";
        double carry = tsNaN; // gauges fill forward inline
        for (size_t w = 0; w < n; w++) {
            if (w > 0)
                os << ",";
            double v;
            if (channels[ch].isGauge) {
                if (w < channels[ch].vals.size() &&
                    channels[ch].seen[w])
                    carry = channels[ch].vals[w];
                v = carry;
            } else {
                v = w < channels[ch].vals.size()
                        ? channels[ch].vals[w]
                        : 0;
            }
            os << json::num(v);
        }
        os << "]";
    }
    if (!channels.empty())
        os << "\n" << pad << " ";
    os << "}}";
}

/** One call of a TimeSeries stream: add to a counter or sample a
 *  gauge (@p ch indexes the sweep's channel list). */
struct SeriesStep
{
    size_t ch;
    uint64_t t;
    double v;
};

/** Channel kinds of the sweep, in creation order: four counters and
 *  three gauges, interleaved so the JSON's channel order matters. */
constexpr bool sweepIsGauge[7] = {false, true,  false, false,
                                  true,  false, true};

/**
 * A seeded stream of 1,200 steps over 100-cycle windows. The cursor
 * mostly stays in its window, sometimes skips up to five, and one
 * step in sixteen lands up to eight windows back (an out-of-order
 * add or sample). Gauge 1 is first sampled a third of the way in and
 * gauge 2 halfway, and the second sample of each lands three windows
 * before its first. Each channel's values start as small whole
 * numbers and widen with the stream: counter 0's sums cross 255,
 * counter 1's 65,535, counter 2's 2^32, gauge 0 crosses 255 and
 * 65,535, and gauge 1 jumps past 2^32. In the last quarter, counter
 * 3 and gauge 2 take every other value from a menu of fractions,
 * negatives, -0.0, NaN, both infinities and the width boundaries, in
 * menu order, so gauge 2 meets -0.0 while it is still narrow.
 */
std::vector<SeriesStep>
seriesStream(uint64_t seed)
{
    const size_t steps = 1200;
    const double special[] = {-0.0,
                              0.5,
                              std::numeric_limits<double>::quiet_NaN(),
                              -1,
                              std::numeric_limits<double>::infinity(),
                              2.75,
                              -std::numeric_limits<double>::infinity(),
                              -300,
                              255,
                              256,
                              65535,
                              65536,
                              0x1p32 - 1,
                              0x1p32,
                              0x1p32 + 0.5,
                              1e30};
    const size_t nspecial = sizeof(special) / sizeof(special[0]);
    Rng rng(seed);
    std::vector<SeriesStep> out;
    uint64_t cursor = 0;
    size_t samples[7] = {}, nextSpecial[7] = {};
    uint64_t firstT[7] = {};
    for (size_t i = 0; i < steps; i++) {
        uint64_t r = rng.nextBounded(16);
        uint64_t t;
        if (r < 12) {
            cursor += rng.nextBounded(10);
            t = cursor;
        } else if (r < 14) {
            cursor += 100 * (1 + rng.nextBounded(5));
            t = cursor;
        } else if (r < 15) {
            cursor += 100;
            t = cursor;
        } else {
            t = cursor - rng.nextBounded(std::min<uint64_t>(cursor, 800) + 1);
        }
        size_t ch = size_t(rng.nextBounded(7));
        if ((ch == 4 && i < steps / 3) || (ch == 6 && i < steps / 2))
            ch = 0; // gauges 1 and 2 start late
        if (sweepIsGauge[ch] && ++samples[ch] == 1)
            firstT[ch] = t;
        else if ((ch == 4 || ch == 6) && samples[ch] == 2)
            t = firstT[ch] - std::min<uint64_t>(firstT[ch], 300);
        size_t stage = i * 4 / steps; // 0..3
        auto whole = [&](uint64_t bound) {
            return double(rng.nextBounded(bound));
        };
        double v;
        switch (ch) {
          case 0: // counter 0
            v = whole(200);
            break;
          case 1: // gauge 0
            v = stage < 1 ? whole(300) : whole(70000);
            break;
          case 2: // counter 1
            v = stage < 1 ? whole(200) : whole(50000);
            break;
          case 3: // counter 2
            v = stage < 1 ? whole(200)
                : stage < 2 ? whole(50000)
                            : whole(uint64_t(3e9));
            break;
          case 4: // gauge 1
            v = stage < 2 ? whole(70000) : whole(uint64_t(1) << 33);
            break;
          default: // counter 3, gauge 2
            v = stage < 3 || rng.nextBounded(2)
                    ? whole(300)
                    : special[nextSpecial[ch]++ % nspecial];
            break;
        }
        out.push_back({ch, t, v});
    }
    return out;
}

/** Same double bit for bit: -0.0 is not 0.0, and NaN is itself. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

template <class Series>
std::string
jsonOf(const Series &series, int indent)
{
    std::ostringstream os;
    series.dumpJson(os, indent);
    return os.str();
}

/** Play @p stream into both series, comparing every window of every
 *  channel, and two past the end, after each step. */
void
playAndCompare(const std::vector<SeriesStep> &stream, TimeSeries &ts,
               RefTimeSeries &ref)
{
    for (size_t i = 0; i < stream.size(); i++) {
        const SeriesStep &s = stream[i];
        if (sweepIsGauge[s.ch]) {
            ts.sample(s.ch, s.t, s.v);
            ref.sample(s.ch, s.t, s.v);
        } else {
            ts.add(s.ch, s.t, s.v);
            ref.add(s.ch, s.t, s.v);
        }
        ASSERT_EQ(ts.windowCount(), ref.windowCount()) << "step " << i;
        for (size_t ch = 0; ch < 7; ch++) {
            for (size_t w = 0; w < ref.windowCount() + 2; w++) {
                double got = ts.at(ch, w), want = ref.at(ch, w);
                ASSERT_TRUE(sameBits(got, want))
                    << "step " << i << " channel " << ch << " window "
                    << w << ": " << got << " != " << want;
            }
        }
    }
}

TEST(TimeSeriesSweep, MatchesDenseReference)
{
    TimeSeries ts(Cycles(100));
    RefTimeSeries ref(Cycles(100));
    for (size_t ch = 0; ch < 7; ch++) {
        std::string name = "ch" + std::to_string(ch);
        if (sweepIsGauge[ch]) {
            ASSERT_EQ(ts.gaugeChannel(name), ch);
            ASSERT_EQ(ref.gaugeChannel(name), ch);
        } else {
            ASSERT_EQ(ts.counterChannel(name), ch);
            ASSERT_EQ(ref.counterChannel(name), ch);
        }
    }
    const std::vector<SeriesStep> stream = seriesStream(0x7e57ab1e);
    for (int round = 0; round < 2; round++) {
        // The second round replays the stream after reset(), which
        // must also return every channel to its narrowest width.
        ASSERT_NO_FATAL_FAILURE(playAndCompare(stream, ts, ref))
            << "round " << round;
        EXPECT_EQ(jsonOf(ts, 0), jsonOf(ref, 0)) << "round " << round;
        EXPECT_EQ(jsonOf(ts, 2), jsonOf(ref, 2)) << "round " << round;
        ts.reset();
        ref.reset();
        ASSERT_EQ(ts.windowCount(), 0u);
    }
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
