/**
 * @file
 * Unit tests for the sim substrate: types, RNG, Zipfian, statistics,
 * the JSON their writers emit, crc32.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/crc.hh"
#include "sim/explorer.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "sim/random.hh"
#include "sim/slo.hh"
#include "sim/stats.hh"
#include "sim/timeseries.hh"
#include "sim/types.hh"

namespace xpc {
namespace {

TEST(CyclesTest, ArithmeticBehavesLikeIntegers)
{
    Cycles a(10), b(3);
    EXPECT_EQ((a + b).value(), 13u);
    EXPECT_EQ((a - b).value(), 7u);
    EXPECT_EQ((b * 4).value(), 12u);
    a += b;
    EXPECT_EQ(a.value(), 13u);
    EXPECT_LT(b, a);
}

TEST(PageMathTest, AlignmentHelpers)
{
    EXPECT_EQ(pageAlignDown(0x1234), 0x1000u);
    EXPECT_EQ(pageAlignUp(0x1234), 0x2000u);
    EXPECT_EQ(pageAlignUp(0x1000), 0x1000u);
    EXPECT_TRUE(pageAligned(0x3000));
    EXPECT_FALSE(pageAligned(0x3001));
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInBounds)
{
    Rng rng(99);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; i++) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(ZipfianTest, StaysInRange)
{
    Zipfian z(1000);
    for (int i = 0; i < 20000; i++)
        EXPECT_LT(z.next(), 1000u);
}

TEST(ZipfianTest, HeadIsHot)
{
    // With theta=0.99, the top handful of keys should dominate.
    Zipfian z(1000);
    uint64_t head = 0, total = 50000;
    for (uint64_t i = 0; i < total; i++)
        head += (z.next() < 10);
    EXPECT_GT(double(head) / double(total), 0.3);
}

TEST(WeightedCdfTest, CumulativeFractionMonotone)
{
    WeightedCdf cdf;
    cdf.add(4, 10);
    cdf.add(64, 30);
    cdf.add(4096, 60);
    EXPECT_DOUBLE_EQ(cdf.totalWeight(), 100.0);
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(3), 0.0);
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(4), 0.1);
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(64), 0.4);
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(1 << 20), 1.0);
}

TEST(WeightedCdfTest, BelowFirstKeyAndEmptyAreZero)
{
    WeightedCdf empty;
    EXPECT_DOUBLE_EQ(empty.totalWeight(), 0.0);
    // Empty cdf: no mass anywhere, and no division by zero.
    EXPECT_DOUBLE_EQ(empty.cumulativeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(empty.cumulativeAt(~uint64_t(0)), 0.0);

    WeightedCdf cdf;
    cdf.add(100, 1);
    // Every key strictly below the first bucket carries zero mass,
    // including key 0.
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(99), 0.0);
    EXPECT_DOUBLE_EQ(cdf.cumulativeAt(100), 1.0);
}

TEST(CounterTest, IncrementAndReset)
{
    Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatGroupTest, RegistersAndLooksUp)
{
    StatGroup root("system");
    StatGroup child("engine", &root);
    Counter c;
    Histogram h;
    child.addCounter("xcalls", &c);
    child.addHistogram("latency", &h);

    ASSERT_EQ(root.children().size(), 1u);
    EXPECT_EQ(root.child("engine"), &child);
    EXPECT_EQ(root.child("nope"), nullptr);
    EXPECT_EQ(child.counter("xcalls"), &c);
    ASSERT_EQ(child.histogramEntries().size(), 1u);
    EXPECT_EQ(child.histogramEntries()[0].first, "latency");
    EXPECT_EQ(child.histogramEntries()[0].second, &h);
    EXPECT_EQ(child.counter("latency"), nullptr);
}

TEST(StatGroupTest, ResetAllRecurses)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter top, bottom;
    Histogram h;
    root.addCounter("top", &top);
    child.addCounter("bottom", &bottom);
    child.addHistogram("hist", &h);
    top.inc(3);
    bottom.inc(5);
    h.record(42);

    root.resetAll();
    EXPECT_EQ(top.value(), 0u);
    EXPECT_EQ(bottom.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(StatGroupTest, DumpJsonIsWellFormedAndComplete)
{
    StatGroup root("system");
    StatGroup child("cache", &root);
    Counter hits;
    Histogram lat, big;
    child.addCounter("hits", &hits);
    child.addHistogram("latency", &lat);
    child.addHistogram("big", &big);
    hits.inc(7);
    for (int i = 1; i <= 4; i++)
        lat.record(uint64_t(i * 10));
    big.record(1047406);
    big.record(1047406);

    std::ostringstream os;
    root.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"system\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"hits\":7"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    // Integral values print exactly, not at six significant digits.
    EXPECT_NE(json.find("\"sum\":2094812,\"mean\":1047406"),
              std::string::npos)
        << json;
    // Balanced braces (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(JsonTest, WritersEscapeCallerStrings)
{
    // A quote, a backslash and a newline, and how JSON spells them.
    const std::string odd = "a\"b\\c\n";
    const std::string esc = "\"a\\\"b\\\\c\\n\"";
    EXPECT_EQ(json::str(odd), esc);

    TimeSeries ts(Cycles(100));
    ts.counterChannel(odd);
    std::ostringstream series;
    ts.dumpJson(series);
    EXPECT_NE(series.str().find(esc + ":[]"), std::string::npos)
        << series.str();

    slo::SloSpec spec;
    spec.kneePerMcycle = 100;
    slo::RegimeTracker tracker(odd, spec, Cycles(100));
    tracker.mark(odd, 0);
    std::ostringstream regimes;
    tracker.dumpJson(regimes);
    EXPECT_NE(regimes.str().find("{\"label\":" + esc), std::string::npos)
        << regimes.str();
    EXPECT_NE(regimes.str().find("{\"name\":" + esc), std::string::npos)
        << regimes.str();

    sim::ExplorerReport report;
    report.outcomes.push_back({{1}, 1, false, odd});
    EXPECT_NE(report.json().find("\"detail\":" + esc), std::string::npos)
        << report.json();
}

TEST(StatGroupTest, DetachesFromDyingParentSafely)
{
    StatGroup child("child");
    {
        StatGroup parent("parent");
        child.setParent(&parent);
        ASSERT_EQ(parent.children().size(), 1u);
    }
    // Parent died first: the child must have been orphaned.
    EXPECT_EQ(child.parent(), nullptr);

    // And the reverse: a dying child detaches from its parent.
    StatGroup parent2("parent2");
    {
        StatGroup c2("c2", &parent2);
        ASSERT_EQ(parent2.children().size(), 1u);
    }
    EXPECT_TRUE(parent2.children().empty());
}

TEST(PhaseStatsTest, RecordsLastAndDistribution)
{
    PhaseStats ps;
    ps.record(Phase::Trap, Cycles(100));
    ps.record(Phase::Trap, Cycles(120));
    EXPECT_EQ(ps.last(Phase::Trap), 120u);
    EXPECT_EQ(ps.histogram(Phase::Trap).count(), 2u);
    EXPECT_DOUBLE_EQ(ps.histogram(Phase::Trap).mean(), 110.0);
    EXPECT_EQ(ps.last(Phase::Xret), 0u);
    EXPECT_EQ(ps.histogram(Phase::Xret).count(), 0u);

    ps.reset();
    EXPECT_EQ(ps.last(Phase::Trap), 0u);
    EXPECT_EQ(ps.histogram(Phase::Trap).count(), 0u);
}

TEST(PhaseStatsTest, PhaseNamesCoverTheTaxonomy)
{
    EXPECT_STREQ(phaseName(Phase::Trap), "trap");
    EXPECT_STREQ(phaseName(Phase::Transfer), "transfer");
    EXPECT_STREQ(phaseName(Phase::Xcall), "xcall");
    EXPECT_STREQ(phaseName(Phase::RoundTrip), "round_trip");
    std::set<std::string> names;
    for (uint32_t i = 0; i < phaseCount; i++)
        names.insert(phaseName(Phase(i)));
    EXPECT_EQ(names.size(), phaseCount); // all distinct
}

/** Bytewise, bit-at-a-time IEEE CRC-32: the reference crc32 must match. */
uint32_t
referenceCrc32(const uint8_t *p, size_t len, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < len; i++) {
        c ^= p[i];
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> buf(n);
    for (auto &b : buf)
        b = uint8_t(rng.next());
    return buf;
}

/** Both kernels: crc32 (carry-less multiply where the host has it)
 *  and its portable twin, which every host runs. */
using CrcKernel = uint32_t (*)(const void *, size_t, uint32_t);
const std::pair<const char *, CrcKernel> crcKernels[] = {
    {"crc32", crc32}, {"crc32Tables", crc32Tables}};

TEST(Crc32Test, KnownAnswer)
{
    for (auto [name, crc] : crcKernels) {
        EXPECT_EQ(crc("123456789", 9, 0), 0xCBF43926u) << name;
        EXPECT_EQ(crc("", 0, 0), 0u) << name;
    }
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    // Every length up to 300 crosses the carry-less kernel's 64-byte
    // minimum, its 64-byte lane step and its 16-byte tail; the lengths
    // around 4096 are the journal's blocks and pages.
    std::vector<uint8_t> buf = randomBytes(4112 + 16, 11);
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 300; n++)
        lengths.push_back(n);
    for (size_t n = 4080; n <= 4112; n++)
        lengths.push_back(n);
    for (uint32_t seed : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
        for (size_t off = 0; off < 16; off++) {
            for (size_t n : lengths) {
                const uint8_t *p = buf.data() + off;
                uint32_t want = referenceCrc32(p, n, seed);
                for (auto [name, crc] : crcKernels) {
                    ASSERT_EQ(crc(p, n, seed), want)
                        << name << " seed " << seed << " offset " << off
                        << " length " << n;
                }
            }
        }
    }
}

TEST(Crc32Test, ChainedNonZeroSeedsMatchReference)
{
    std::vector<uint8_t> buf = randomBytes(4096 + 512, 12);
    for (uint32_t seed : {1u, 0xdeadbeefu, 0xffffffffu}) {
        for (size_t n : {size_t(1), size_t(7), size_t(8), size_t(9),
                         size_t(64), size_t(4096)}) {
            for (auto [name, crc] : crcKernels) {
                ASSERT_EQ(crc(buf.data() + 3, n, seed),
                          referenceCrc32(buf.data() + 3, n, seed))
                    << name << " seed " << seed << " length " << n;
            }
        }
    }
    // Chaining chunk by chunk, each chunk seeded with the running crc,
    // equals one pass over the whole buffer. The chunks sit on both
    // sides of 16 and 64 bytes, so the carry-less kernel hands on its
    // register to the tables, and to itself, at every kind of seam.
    for (auto [name, crc] : crcKernels) {
        uint32_t chained = 0, ref = 0;
        size_t pos = 0;
        for (size_t n : {size_t(5), size_t(8), size_t(13), size_t(15),
                         size_t(16), size_t(17), size_t(63), size_t(64),
                         size_t(65), size_t(64), size_t(4096), size_t(79),
                         size_t(3)}) {
            chained = crc(buf.data() + pos, n, chained);
            ref = referenceCrc32(buf.data() + pos, n, ref);
            ASSERT_EQ(chained, ref) << name << " after " << pos + n
                                    << " bytes";
            pos += n;
        }
        EXPECT_EQ(chained, crc(buf.data(), pos, 0)) << name;
    }
}

} // namespace
} // namespace xpc
