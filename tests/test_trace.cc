/**
 * @file
 * Unit tests for the cycle-keyed event tracer, the RAII span probes
 * and the pluggable log sink.
 *
 * Every test traces into its own TraceTest fixture: a request context
 * and an enabled tracer, the pair a hw::Machine owns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/phase.hh"
#include "sim/request.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace xpc {
namespace {

/** Minimal core for Span/PhaseTimer: a clock, an id, and the
 *  machine's request context and tracer. */
struct StubCore
{
    req::RequestContext &ctx;
    trace::Tracer &tr;
    uint64_t t = 0;
    uint32_t core = 3;

    Cycles now() const { return Cycles(t); }
    uint32_t id() const { return core; }
    req::RequestContext &requests() { return ctx; }
    trace::Tracer &tracer() { return tr; }
};

class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        t.setCapacity(1024);
        t.setEnabled(true);
    }

    req::RequestContext ctx;
    trace::Tracer t{ctx};
};

TEST_F(TraceTest, SpanNestingEmitsBalancedBeginEnd)
{
    StubCore core{ctx, t};
    {
        trace::Span<StubCore> outer(core, "test", "outer");
        core.t = 10;
        {
            trace::Span<StubCore> inner(core, "test", "inner");
            core.t = 20;
        }
        core.t = 30;
    }
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs[0].kind, trace::EventKind::Begin);
    EXPECT_STREQ(evs[0].name, "outer");
    EXPECT_EQ(evs[0].ts, 0u);
    EXPECT_EQ(evs[1].kind, trace::EventKind::Begin);
    EXPECT_STREQ(evs[1].name, "inner");
    EXPECT_EQ(evs[1].ts, 10u);
    EXPECT_EQ(evs[2].kind, trace::EventKind::End);
    EXPECT_STREQ(evs[2].name, "inner");
    EXPECT_EQ(evs[2].ts, 20u);
    EXPECT_EQ(evs[3].kind, trace::EventKind::End);
    EXPECT_STREQ(evs[3].name, "outer");
    EXPECT_EQ(evs[3].ts, 30u);
    for (const auto &ev : evs)
        EXPECT_EQ(ev.tid, core.id());
}

TEST_F(TraceTest, RingWrapsAndCountsDrops)
{
    t.setCapacity(4);
    for (uint64_t i = 0; i < 10; i++)
        t.instant("test", "ev", i, 0);
    EXPECT_EQ(t.recordedCount(), 10u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.droppedCount(), 6u);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest retained first: timestamps 6..9.
    for (size_t i = 0; i < evs.size(); i++)
        EXPECT_EQ(evs[i].ts, 6 + i);

    t.clear();
    EXPECT_EQ(t.recordedCount(), 0u);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.droppedCount(), 0u);
    EXPECT_EQ(t.capacity(), 4u);

    // Events recorded after clear() are all that events() returns:
    // none of the slots left over from before may show through.
    t.instant("test", "ev", 100, 0);
    t.instant("test", "ev", 101, 0);
    evs = t.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].ts, 100u);
    EXPECT_EQ(evs[1].ts, 101u);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing)
{
    t.setEnabled(false);
    // Record methods self-guard: even unguarded probe sites stay
    // silent while tracing is off.
    t.begin("test", "x", 1, 0);
    t.end("test", "x", 2, 0);
    t.instant("test", "i", 3, 0);
    t.counter("test", "c", 4, 5, 0);
    t.instantNow("test", "n", 0);
    StubCore core{ctx, t};
    { trace::Span<StubCore> span(core, "test", "span"); }
    EXPECT_EQ(t.recordedCount(), 0u);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.events().empty());
}

TEST_F(TraceTest, InstantNowReusesLastTimestampPerTid)
{
    t.begin("test", "s", 500, 4);
    t.instant("test", "other", 900, 5);
    // A thread lane (req::threadLane) keeps its own clock too.
    t.begin("test", "call", 700, 1004);
    EXPECT_EQ(t.lastTime(4), 500u);
    EXPECT_EQ(t.lastTime(5), 900u);
    EXPECT_EQ(t.lastTime(1004), 700u);
    EXPECT_EQ(t.lastTime(42), 0u);
    EXPECT_EQ(t.lastTime(1004 % 256), 0u);
    t.instantNow("test", "obs", 4);
    t.instantNow("test", "obs", 1004);
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 5u);
    EXPECT_EQ(evs[3].ts, 500u);
    EXPECT_EQ(evs[3].tid, 4u);
    EXPECT_EQ(evs[4].ts, 700u);
    EXPECT_EQ(evs[4].tid, 1004u);
}

TEST_F(TraceTest, ChromeJsonRoundTrip)
{
    const std::string odd = "a\"b\\c\n";
    t.setTrackName(2, odd);
    t.begin("cat", "span", 100, 1);
    t.end("cat", "span", 250, 1);
    t.instant("cat", odd.c_str(), 300, 2, "hello \"world\"\n");
    t.counter("cat", "depth", 7, 400, 1);

    std::ostringstream os;
    t.exportChromeJson(os);
    std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"span\",\"cat\":\"cat\","
                        "\"ph\":\"B\",\"ts\":100"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\",\"ts\":250"), std::string::npos);
    // Instants carry scope "t" and the escaped text payload.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\\\"world\\\"\\n"), std::string::npos);
    // Lane and event names are escaped like the payload.
    EXPECT_NE(json.find("\"args\":{\"name\":\"a\\\"b\\\\c\\n\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"name\":\"a\\\"b\\\\c\\n\",\"cat\""),
              std::string::npos)
        << json;
    // Counters export their sampled value.
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":7}"), std::string::npos);
    // Cheap structural check: the document is brace-balanced and the
    // lane's metadata and each of the four events became one object.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    size_t nevents = 0;
    for (size_t at = json.find("\"ph\":"); at != std::string::npos;
         at = json.find("\"ph\":", at + 1))
        nevents++;
    EXPECT_EQ(nevents, 5u);
}

TEST_F(TraceTest, LogSinkCapturesRecords)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    setLogSink([&](LogLevel level, const std::string &msg) {
        captured.emplace_back(level, msg);
    });
    warn("relay segment %d oversized", 7);
    inform("engine cache primed");
    setLogSink(nullptr);

    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_EQ(captured[0].second, "relay segment 7 oversized");
    EXPECT_EQ(captured[1].first, LogLevel::Inform);
    EXPECT_EQ(captured[1].second, "engine cache primed");
}

TEST_F(TraceTest, LogRecordsInterleaveIntoTraceWhenEnabled)
{
    setLogSink([](LogLevel, const std::string &) {}); // mute stdio
    attachLogTracer(t);
    warn("tlb shootdown fallback");
    detachLogTracer(t);
    setLogSink(nullptr);

    auto evs = t.events();
    ASSERT_FALSE(evs.empty());
    const trace::TraceEvent &ev = evs.back();
    EXPECT_EQ(ev.kind, trace::EventKind::Instant);
    EXPECT_STREQ(ev.cat, "log");
    EXPECT_STREQ(ev.name, "warn");
    EXPECT_EQ(t.textOf(ev), "tlb shootdown fallback");
}

TEST_F(TraceTest, PhaseTimerEmitsSpanAtStop)
{
    uint32_t outer = ctx.currentPhase();
    StubCore core{ctx, t};
    core.t = 100;
    PhaseTimer<StubCore> timer(core, Phase::Xcall, "xpc", 1007);
    // While open the phase is bound and nothing is recorded yet.
    EXPECT_EQ(ctx.currentPhase(), uint32_t(Phase::Xcall));
    EXPECT_EQ(t.size(), 0u);
    core.t = 172;
    EXPECT_EQ(timer.stop().value(), 72u);
    EXPECT_EQ(ctx.currentPhase(), outer);

    // The span runs from the phase's first cycle to stop(), on the
    // caller's lane and category, recorded after the phase unbound.
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].kind, trace::EventKind::Begin);
    EXPECT_EQ(evs[0].ts, 100u);
    EXPECT_EQ(evs[1].kind, trace::EventKind::End);
    EXPECT_EQ(evs[1].ts, 172u);
    for (const trace::TraceEvent &ev : evs) {
        EXPECT_STREQ(ev.name, "xcall");
        EXPECT_STREQ(ev.cat, "xpc");
        EXPECT_EQ(ev.tid, 1007u);
        EXPECT_EQ(ev.phase, outer);
    }
}

TEST_F(TraceTest, PhaseTimerStopIsIdempotent)
{
    uint32_t outer = ctx.currentPhase();
    StubCore core{ctx, t};
    {
        PhaseTimer<StubCore> timer(core, Phase::Trap, "sel4", core.id());
        core.t = 40;
        EXPECT_EQ(timer.stop().value(), 40u);
        core.t = 99; // later stops (and the destructor) change nothing
        EXPECT_EQ(timer.stop().value(), 40u);
    }
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[1].ts, 40u);
    EXPECT_EQ(ctx.currentPhase(), outer);
}

TEST_F(TraceTest, TextsLiveAsLongAsTheirEvents)
{
    // Thousands of texts in a ring that retains every event: each
    // keeps its text.
    t.setCapacity(4096);
    for (int i = 0; i < 3000; i++)
        t.instant("test", "note", uint64_t(i), 0, std::to_string(i));
    auto evs = t.events();
    ASSERT_EQ(evs.size(), 3000u);
    for (size_t i = 0; i < evs.size(); i++)
        ASSERT_EQ(t.textOf(evs[i]), std::to_string(i)) << "event " << i;

    // Once the event ring wraps, the retained events keep theirs too.
    t.setCapacity(64);
    for (int i = 0; i < 200; i++) {
        t.instant("test", "note", uint64_t(i), 0, std::to_string(i));
        t.instant("test", "bare", uint64_t(i), 0);
    }
    evs = t.events();
    ASSERT_EQ(evs.size(), 64u);
    for (const trace::TraceEvent &ev : evs) {
        std::string want =
            std::string_view(ev.name) == "note" ? std::to_string(ev.ts)
                                                : "";
        EXPECT_EQ(t.textOf(ev), want);
    }
}

TEST_F(TraceTest, SetCapacityDropsOldEvents)
{
    t.instant("test", "a", 1, 0);
    t.instant("test", "b", 2, 0);
    EXPECT_EQ(t.size(), 2u);
    t.setCapacity(8);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), 8u);
    t.instant("test", "c", 3, 0);
    EXPECT_EQ(t.size(), 1u);
}

} // namespace
} // namespace xpc
