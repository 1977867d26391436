/**
 * @file
 * The bench report's table and claims (bench/bench_util.hh): column
 * sizing, recording every printed cell under its key, and the verdict
 * of each kind of claim, including the ones that must fail.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hh"

namespace xpc::bench {
namespace {

/** Points $XPC_BENCH_DIR at a fresh directory for each test. */
class BenchReportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/xpc_bench_test_XXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir = tmpl;
        setenv("XPC_BENCH_DIR", dir.c_str(), 1);
    }

    void
    TearDown() override
    {
        std::remove((dir + "/BENCH_unit.json").c_str());
        std::remove((dir + "/HOST_unit.json").c_str());
        std::remove(dir.c_str());
        unsetenv("XPC_BENCH_DIR");
    }

    /** The written @p file, or "" when there is none. */
    std::string
    written(const std::string &file = "BENCH_unit.json") const
    {
        std::ifstream in(dir + "/" + file);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    std::string dir;
};

TEST_F(BenchReportTest, WideCellsKeepAGap)
{
    BenchReport report("unit");
    Table t(report, "caption",
            {{"System"}, {"w/o trap"}, {"share", "%.1f%%", "share"}});
    t.row("Mach-like(Zircon)", "zircon", {"no", 52.94});
    t.row("XPC", "xpc", {"yes", 100.0});
    t.row("data transfer share", "transfer", {"a-wider-than-header", 1.0});
    testing::internal::CaptureStdout();
    t.print();
    std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("=== caption ==="), std::string::npos);
    EXPECT_NE(out.find("Mach-like(Zircon)    no"), std::string::npos) << out;
    EXPECT_NE(out.find("data transfer share  a-wider-than-header  1.0%"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("no                   52.9%"), std::string::npos)
        << out;
    EXPECT_EQ(out.find(" \n"), std::string::npos) << "trailing blanks";
}

TEST_F(BenchReportTest, EveryCellIsRecordedUnroundedUnderItsKey)
{
    BenchReport report("unit");
    Table t(report, "",
            {{"workload"},
             {"Zircon", "%.0f", "zircon_ops"},
             {"(paper)", "(%.0f)", "paper.zircon_ops"},
             {"normalized", "%.2f", "normalized.zircon_*"}});
    t.row("YCSB-A", {169.25, 170.0, 2.531});
    t.row("average", "avg", {"", "", 2.0875});
    EXPECT_EQ(report.write(), 0u);
    std::string json = written();
    EXPECT_NE(json.find("\"zircon_ops.YCSB-A\": 169.25"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"paper.zircon_ops.YCSB-A\": 170"),
              std::string::npos);
    EXPECT_NE(json.find("\"normalized.zircon_YCSB-A\": 2.531"),
              std::string::npos);
    EXPECT_NE(json.find("\"normalized.zircon_avg\": 2.0875"),
              std::string::npos);
}

TEST_F(BenchReportTest, ConfigStringsAreEscaped)
{
    BenchReport report("unit");
    report.config("a\"b\\c\n", "a\"b\\c\n");
    EXPECT_EQ(report.write(), 0u);
    EXPECT_NE(written().find("\"a\\\"b\\\\c\\n\": \"a\\\"b\\\\c\\n\""),
              std::string::npos)
        << written();
}

TEST_F(BenchReportTest, ClaimsGetTheirVerdicts)
{
    BenchReport report("unit");
    report.metric("xpc", 131);
    report.metric("sel4", 664);
    report.metric("paper.sel4", 4804);
    report.less("xpc", "sel4");
    report.less("sel4", "xpc");
    report.near("sel4", 0.05).deviation = "the copy is cheaper here";
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    size_t failed = report.write();
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(failed, 1u);
    std::string json = written();
    EXPECT_NE(json.find("\"xpc < sel4\": \"pass\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"sel4 < xpc\": \"fail\""), std::string::npos);
    EXPECT_NE(json.find("\"sel4 within 5% of paper\": \"deviation\""),
              std::string::npos);
    EXPECT_NE(out.find("deviation: the copy is cheaper here"),
              std::string::npos)
        << out;
    EXPECT_NE(err.find("bench unit: claim failed: sel4 < xpc"),
              std::string::npos)
        << err;
}

TEST_F(BenchReportTest, NeverPassesOnNanAndFailsOnANumber)
{
    BenchReport report("unit");
    report.metric("recovery.heal_off", NAN);
    report.metric("recovery.heal_on", 197063);
    report.never("recovery.heal_off");
    report.never("recovery.heal_on");
    report.finite("recovery.heal_on");
    report.finite("recovery.heal_off");
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(report.write(), 2u);
    testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    std::string json = written();
    EXPECT_NE(json.find("\"recovery.heal_off never\": \"pass\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"recovery.heal_on never\": \"fail\""),
              std::string::npos);
    EXPECT_NE(json.find("\"recovery.heal_on finite\": \"pass\""),
              std::string::npos);
    EXPECT_NE(err.find("recovery.heal_off finite"), std::string::npos);
}

TEST_F(BenchReportTest, AClaimOnAKeyNeverRecordedFails)
{
    BenchReport report("unit");
    report.metric("recorded", 1);
    report.never("typo");
    report.atMost("typo", 1).deviation = "a deviation still needs its key";
    report.less("recorded", "typo");
    report.near("recorded", 0.1); // no paper.recorded
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(report.write(), 4u);
    std::string out = testing::internal::GetCapturedStdout();
    testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("not recorded"), std::string::npos) << out;
}

TEST_F(BenchReportTest, BoundsNeedAFiniteValueInside)
{
    BenchReport report("unit");
    report.metric("retention", 0.83);
    report.metric("flagged", 1);
    report.atLeast("retention", 0.75);
    report.atMost("retention", 0.7);
    report.within("retention", 0.8, 0.9);
    report.atLeast("flagged", 1);
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(report.write(), 1u);
    testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("claim failed: retention <= 0.7 (0.83)"),
              std::string::npos)
        << err;
}

TEST_F(BenchReportTest, AFailedClaimStillWritesTheReportAndExitsNonZero)
{
    EXPECT_EXIT(
        {
            BenchReport report("unit");
            report.metric("tail_goodput_frac", 0.93);
            report.atMost("tail_goodput_frac", 0.7);
        },
        testing::ExitedWithCode(1),
        "bench unit: claim failed: tail_goodput_frac <= 0.7");
    std::string json = written();
    EXPECT_NE(json.find("\"tail_goodput_frac\": 0.93"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"tail_goodput_frac <= 0.7\": \"fail\""),
              std::string::npos);
}

TEST_F(BenchReportTest, APrintedNumberWithoutAKeyIsAnError)
{
    BenchReport report("unit");
    Table t(report, "caption", {{"label"}, {"text only"}});
    EXPECT_DEATH(t.row("row", {1.0}), "prints a number but has no report");
    EXPECT_DEATH(
        {
            report.metric("k", 1);
            report.metric("k", 2);
        },
        "records k twice");
}

TEST_F(BenchReportTest, PeakRssGoesToTheHostSidecarOnly)
{
    BenchReport report("unit");
    report.metric("k", 1);
    EXPECT_EQ(report.write(), 0u);
    std::string host = written("HOST_unit.json");
    const std::string key = "\"peak_rss_mb\": ";
    size_t at = host.find(key);
    ASSERT_NE(at, std::string::npos) << host;
    EXPECT_GT(std::strtod(host.c_str() + at + key.size(), nullptr), 0.0)
        << host;
    EXPECT_EQ(written().find("peak_rss_mb"), std::string::npos)
        << written();
}

} // namespace
} // namespace xpc::bench
