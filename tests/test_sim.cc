/**
 * @file
 * Unit tests for the sim substrate: types, RNG, Zipfian, statistics,
 * crc32.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "sim/crc.hh"
#include "sim/phase.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
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

TEST(DistributionTest, MomentsAndQuantiles)
{
    Distribution d;
    for (int i = 1; i <= 100; i++)
        d.add(double(i));
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_NEAR(d.quantile(0.5), 50.5, 0.01);
    EXPECT_NEAR(d.quantile(0.99), 99.01, 0.01);
}

TEST(DistributionTest, ResetClears)
{
    Distribution d;
    d.add(1);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0.0);
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

TEST(DistributionTest, EmptyQueriesAreNaN)
{
    Distribution d;
    EXPECT_TRUE(std::isnan(d.min()));
    EXPECT_TRUE(std::isnan(d.max()));
    EXPECT_TRUE(std::isnan(d.mean()));
    EXPECT_TRUE(std::isnan(d.quantile(0.5)));
    EXPECT_TRUE(std::isnan(d.quantile(0.0)));
    EXPECT_TRUE(std::isnan(d.quantile(1.0)));
}

TEST(DistributionTest, QuantileEndpointsAreMinAndMax)
{
    Distribution d;
    for (double v : {7.0, 3.0, 11.0, 5.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 11.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), d.min());
    EXPECT_DOUBLE_EQ(d.quantile(1.0), d.max());
}

TEST(DistributionTest, SingleSampleEveryQuantileIsTheSample)
{
    Distribution d;
    d.add(42.0);
    // pos = q * (n-1) = 0 for every q: lo == hi == 0, no
    // interpolation partner to index past the end.
    for (double q : {0.0, 0.25, 0.5, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(d.quantile(q), 42.0) << "q=" << q;
}

TEST(DistributionTest, DuplicateHeavySamplesInterpolateExactly)
{
    // 99 copies of 5 and one 10: every quantile up to p98 sits inside
    // the run of fives; only the very top interpolates toward 10.
    Distribution d;
    for (int i = 0; i < 99; i++)
        d.add(5.0);
    d.add(10.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.98), 5.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 10.0);
    // pos = 0.999 * 99 = 98.901: between the last 5 and the 10.
    EXPECT_NEAR(d.quantile(0.999), 5.0 + 0.901 * 5.0, 1e-9);
}

TEST(DistributionTest, QuantileNearOneDoesNotIndexPastEnd)
{
    // Regression: q just below 1 can make ceil(q * (n-1)) exceed
    // n-1 through floating error; the indices must clamp.
    Distribution d;
    for (int i = 1; i <= 7; i++)
        d.add(double(i));
    double v = d.quantile(0.9999999999999999);
    EXPECT_GE(v, d.min());
    EXPECT_LE(v, d.max());
}

TEST(DistributionTest, QuantileOutOfRangePanics)
{
    Distribution d;
    d.add(1.0);
    EXPECT_DEATH(d.quantile(-0.1), "quantile");
    EXPECT_DEATH(d.quantile(1.1), "quantile");
}

TEST(StatGroupTest, RegistersAndLooksUp)
{
    StatGroup root("system");
    StatGroup child("engine", &root);
    Counter c;
    Distribution d;
    child.addCounter("xcalls", &c);
    child.addDistribution("latency", &d);

    ASSERT_EQ(root.children().size(), 1u);
    EXPECT_EQ(root.child("engine"), &child);
    EXPECT_EQ(root.child("nope"), nullptr);
    EXPECT_EQ(child.counter("xcalls"), &c);
    EXPECT_EQ(child.distribution("latency"), &d);
    EXPECT_EQ(child.counter("latency"), nullptr);
}

TEST(StatGroupTest, ResetAllRecurses)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter top, bottom;
    Distribution d;
    root.addCounter("top", &top);
    child.addCounter("bottom", &bottom);
    child.addDistribution("dist", &d);
    top.inc(3);
    bottom.inc(5);
    d.add(42);

    root.resetAll();
    EXPECT_EQ(top.value(), 0u);
    EXPECT_EQ(bottom.value(), 0u);
    EXPECT_EQ(d.count(), 0u);
}

TEST(StatGroupTest, DumpJsonIsWellFormedAndComplete)
{
    StatGroup root("system");
    StatGroup child("cache", &root);
    Counter hits;
    Distribution lat;
    child.addCounter("hits", &hits);
    child.addDistribution("latency", &lat);
    hits.inc(7);
    for (int i = 1; i <= 4; i++)
        lat.add(double(i * 10));

    std::ostringstream os;
    root.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"system\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"hits\":7"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    // Balanced braces (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(StatGroupTest, DumpCsvRowsCarryFullPath)
{
    StatGroup root("system");
    StatGroup child("tlb", &root);
    Counter misses;
    child.addCounter("misses", &misses);
    misses.inc(9);

    std::ostringstream os;
    root.dumpCsv(os);
    EXPECT_NE(os.str().find("system.tlb,counter,misses,9"),
              std::string::npos);
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
    EXPECT_EQ(ps.dist(Phase::Trap).count(), 2u);
    EXPECT_DOUBLE_EQ(ps.dist(Phase::Trap).mean(), 110.0);
    EXPECT_EQ(ps.last(Phase::Xret), 0u);
    EXPECT_EQ(ps.dist(Phase::Xret).count(), 0u);

    ps.reset();
    EXPECT_EQ(ps.last(Phase::Trap), 0u);
    EXPECT_EQ(ps.dist(Phase::Trap).count(), 0u);
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

TEST(Crc32Test, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset)
{
    std::vector<uint8_t> buf = randomBytes(4096 + 8, 11);
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 72; n++)
        lengths.push_back(n);
    lengths.push_back(4096);
    for (size_t off = 0; off < 8; off++) {
        for (size_t n : lengths) {
            const uint8_t *p = buf.data() + off;
            ASSERT_EQ(crc32(p, n), referenceCrc32(p, n, 0))
                << "offset " << off << " length " << n;
        }
    }
}

TEST(Crc32Test, ChainedNonZeroSeedsMatchReference)
{
    std::vector<uint8_t> buf = randomBytes(4096 + 512, 12);
    for (uint32_t seed : {1u, 0xdeadbeefu, 0xffffffffu}) {
        for (size_t n : {size_t(1), size_t(7), size_t(8), size_t(9),
                         size_t(64), size_t(4096)}) {
            ASSERT_EQ(crc32(buf.data() + 3, n, seed),
                      referenceCrc32(buf.data() + 3, n, seed))
                << "seed " << seed << " length " << n;
        }
    }
    // Chaining chunk by chunk, each chunk seeded with the running crc,
    // equals one pass over the whole buffer.
    uint32_t chained = 0, ref = 0;
    size_t pos = 0;
    for (size_t n : {size_t(5), size_t(8), size_t(13), size_t(64),
                     size_t(4096), size_t(3)}) {
        chained = crc32(buf.data() + pos, n, chained);
        ref = referenceCrc32(buf.data() + pos, n, ref);
        ASSERT_EQ(chained, ref) << "after " << pos + n << " bytes";
        pos += n;
    }
    EXPECT_EQ(chained, crc32(buf.data(), pos));
}

} // namespace
} // namespace xpc
