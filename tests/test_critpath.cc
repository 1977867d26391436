/**
 * @file
 * Causal tracing and critical-path reconstruction: one request must
 * render as a single closed flow across lanes, and the per-span cycle
 * attribution must sum to exactly the request's end-to-end cycles -
 * including under ring wraparound and fault-injected server death.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/system.hh"
#include "core/transport.hh"
#include "sim/critpath.hh"
#include "sim/fault_injector.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

using namespace xpc;

namespace {

class CritPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::Tracer &t = trace::Tracer::global();
        t.setEnabled(true);
        t.setCapacity(1 << 14);
        t.clear();
        req::RequestContext::global().reset();
    }

    void
    TearDown() override
    {
        trace::Tracer &t = trace::Tracer::global();
        t.setEnabled(false);
        t.clear();
        req::RequestContext::global().reset();
    }

    static std::unique_ptr<core::System>
    makeSystem(core::SystemFlavor flavor)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        return std::make_unique<core::System>(opts);
    }
};

/** The invariant every report must satisfy: nothing vanished. */
void
expectExact(const critpath::RequestReport &r)
{
    EXPECT_EQ(r.attributed(), r.total())
        << "request #" << r.id << " lost cycles";
}

TEST_F(CritPathTest, SingleXcallReconstructs)
{
    // The quickstart shape: client -> echo server, XPC fast path.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("echo-server");
    // The handler touches the message so its span has real cycles
    // (readMsg/writeMsg are charged through the relay segment).
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            uint8_t buf[64];
            call.readMsg(0, buf, sizeof(buf));
            call.writeMsg(0, buf, sizeof(buf));
            call.setReplyLen(sizeof(buf));
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, id, 0, 64);
    ASSERT_TRUE(out.ok);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), 1u);
    const critpath::RequestReport &r = reports[0];
    EXPECT_EQ(r.id, 1u);
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.flowClosed);
    EXPECT_GE(r.lanes, 2u); // client thread lane + handler/core lanes
    expectExact(r);
    EXPECT_FALSE(r.path.empty());

    // The handler span exists and sits on a lane in the path.
    bool saw_handler = false;
    for (const auto &[name, cycles] : r.spanCycles)
        saw_handler |= name == "handler";
    EXPECT_TRUE(saw_handler);

    // The human-readable report agrees with the flags.
    std::string text = critpath::formatReport(r, tracer);
    EXPECT_NE(text.find("flow closed"), std::string::npos);
    EXPECT_NE(text.find("exact"), std::string::npos);
    EXPECT_EQ(text.find("MISMATCH"), std::string::npos);
}

TEST_F(CritPathTest, NestedChainKeepsOneFlow)
{
    // The web_chain shape: client -> A -> B -> C by seg-mask
    // handover. All three hops must share one RequestId and land in
    // one report that spans at least four lanes.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &a_t = sys->spawn("front");
    kernel::Thread &b_t = sys->spawn("middle");
    kernel::Thread &c_t = sys->spawn("back");
    kernel::Thread &client = sys->spawn("client");

    uint64_t b_id = 0, c_id = 0;
    c_id = rt.registerEntry(
        c_t, c_t,
        [](core::XpcServerCall &call) { call.setReplyLen(16); }, 4);
    b_id = rt.registerEntry(
        b_t, b_t,
        [&](core::XpcServerCall &call) {
            auto out = call.callNested(c_id, 0, 0, 16);
            EXPECT_TRUE(out.ok);
        },
        4);
    uint64_t a_id = rt.registerEntry(
        a_t, a_t,
        [&](core::XpcServerCall &call) {
            auto out = call.callNested(b_id, 0, 0, 16);
            EXPECT_TRUE(out.ok);
        },
        4);
    sys->manager().grantXcallCap(a_t, client, a_id);
    sys->manager().grantXcallCap(b_t, a_t, b_id);
    sys->manager().grantXcallCap(c_t, b_t, c_id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, a_id, 0, 64);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(req::RequestContext::global().minted(), 1u);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), 1u) << "nested hops minted extra ids";
    const critpath::RequestReport &r = reports[0];
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.flowClosed);
    EXPECT_GE(r.lanes, 4u); // client + front + middle + back
    expectExact(r);
}

TEST_F(CritPathTest, TransportCallsCloseOnEveryKernel)
{
    // The same invariants through the Transport layer on all three
    // systems: XPC fast path, seL4 IPC, Zircon channels.
    const core::SystemFlavor flavors[] = {
        core::SystemFlavor::Sel4Xpc,
        core::SystemFlavor::Sel4TwoCopy,
        core::SystemFlavor::Zircon,
    };
    for (auto flavor : flavors) {
        SCOPED_TRACE(core::systemFlavorName(flavor));
        auto sys = makeSystem(flavor);
        kernel::Thread &server = sys->spawn("server");
        kernel::Thread &client = sys->spawn("client");
        core::ServiceDesc desc;
        desc.name = "echo";
        desc.handlerThread = &server;
        core::ServiceId svc = sys->transport().registerService(
            desc, [](core::ServerApi &api) {
                api.replyFromRequest(0, api.requestLen());
            });
        sys->transport().connect(client, svc);

        hw::Core &core = sys->core(0);
        core::Transport &tr = sys->transport();
        tr.requestArea(core, client, 4096);

        trace::Tracer &tracer = trace::Tracer::global();
        tracer.clear();
        req::RequestContext::global().reset();
        uint8_t payload[64] = {0x5a};
        tr.clientWrite(core, client, 0, payload, sizeof(payload));
        core::CallResult res =
            tr.call(core, client, svc, 0, sizeof(payload), 4096);
        ASSERT_TRUE(res.ok);

        auto reports = critpath::analyze(tracer.events());
        ASSERT_EQ(reports.size(), 1u);
        const critpath::RequestReport &r = reports[0];
        EXPECT_TRUE(r.complete);
        EXPECT_TRUE(r.flowClosed);
        EXPECT_GE(r.lanes, 2u);
        expectExact(r);
    }
}

/**
 * One scripted scenario through the Transport layer, traced:
 *   1. a tenant-1 client calls "front" under the Critical tier, and
 *      front hands bytes [64, 128) of the request over to "back";
 *   2. tenancy enforcement refuses the client's call into tenant 2;
 *   3. a call to "slow" overruns the system's deadline budget.
 * @return the Chrome-trace export without its thread_name metadata,
 *         which comes from the tracer's process-wide lane map and so
 *         depends on which tests ran earlier in the process.
 */
std::string
goldenScenarioTrace(core::SystemFlavor flavor)
{
    core::SystemOptions opts;
    opts.flavor = flavor;
    opts.deadlineCycles = Cycles(200000);
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    tr.enforceTenancy = true;

    kernel::Thread &back_t = sys.spawn("back", 0, 1);
    kernel::Thread &front_t = sys.spawn("front", 0, 1);
    kernel::Thread &slow_t = sys.spawn("slow", 0, 1);
    kernel::Thread &other_t = sys.spawn("other", 0, 2);
    kernel::Thread &client = sys.spawn("client", 0, 1);

    core::ServiceDesc bd;
    bd.name = "back";
    bd.handlerThread = &back_t;
    core::ServiceId back =
        tr.registerService(bd, [](core::ServerApi &api) {
            std::vector<uint8_t> buf(api.requestLen());
            api.readRequest(0, buf.data(), buf.size());
            for (auto &b : buf)
                b = uint8_t(b + 1);
            api.writeReply(0, buf.data(), buf.size());
            api.setReplyLen(buf.size());
        });
    core::ServiceDesc fd;
    fd.name = "front";
    fd.handlerThread = &front_t;
    fd.callees = {back};
    core::ServiceId front =
        tr.registerService(fd, [back](core::ServerApi &api) {
            api.callService(back, 1, 64, 64);
            api.replyFromRequest(0, api.requestLen());
        });
    core::ServiceDesc sd;
    sd.name = "slow";
    sd.handlerThread = &slow_t;
    core::ServiceId slow =
        tr.registerService(sd, [](core::ServerApi &api) {
            api.core().spend(Cycles(400000));
            api.setReplyLen(0);
        });
    core::ServiceDesc od;
    od.name = "other";
    od.handlerThread = &other_t;
    core::ServiceId other = tr.registerService(
        od, [](core::ServerApi &api) { api.setReplyLen(0); });
    tr.connect(client, front);
    tr.connect(front_t, back);
    tr.connect(client, slow);

    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 4096);
    std::vector<uint8_t> msg(256);
    for (size_t i = 0; i < msg.size(); i++)
        msg[i] = uint8_t(i * 7);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    {
        req::CriticalityScope tier(req::Criticality::Critical);
        EXPECT_TRUE(
            tr.clientWrite(core, client, 0, msg.data(), msg.size()));
        core::CallResult r =
            tr.call(core, client, front, 0, msg.size(), 4096);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.replyLen, msg.size());
    }
    core::CallResult denied = tr.call(core, client, other, 0, 0, 64);
    EXPECT_EQ(denied.status, core::TransportStatus::NoCapability);
    core::CallResult late = tr.call(core, client, slow, 0, 16, 64);
    EXPECT_EQ(late.status, core::TransportStatus::DeadlineExpired);

    std::ostringstream os;
    tracer.exportChromeJson(os);
    std::istringstream in(os.str());
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("\"name\":\"thread_name\"") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

TEST_F(CritPathTest, CallSpansMatchGoldenOnEveryFlavor)
{
    // Byte-for-byte span, flow and instant stream of the scenario
    // above, pinned per flavor under tests/golden/. A mismatch
    // writes the new export next to the test binary as
    // callspan_<flavor>.actual.json; copy it over the golden only
    // when the change to the trace is intended.
    const core::SystemFlavor flavors[] = {
        core::SystemFlavor::Sel4TwoCopy, core::SystemFlavor::Sel4OneCopy,
        core::SystemFlavor::Sel4Xpc,     core::SystemFlavor::Zircon,
        core::SystemFlavor::ZirconXpc,
    };
    for (auto flavor : flavors) {
        std::string name = core::systemFlavorName(flavor);
        SCOPED_TRACE(name);
        std::string actual = goldenScenarioTrace(flavor);

        std::string path =
            std::string(XPC_GOLDEN_DIR) + "/callspan_" + name + ".json";
        std::ifstream gf(path);
        EXPECT_TRUE(gf.good()) << "missing golden " << path;
        std::stringstream golden;
        golden << gf.rdbuf();
        if (golden.str() == actual)
            continue;

        std::ofstream("callspan_" + name + ".actual.json") << actual;
        std::istringstream want(golden.str()), got(actual);
        std::string w, g;
        for (int n = 1;; n++) {
            bool more_w = bool(std::getline(want, w));
            bool more_g = bool(std::getline(got, g));
            if (!more_w && !more_g)
                break;
            if (more_w != more_g || w != g) {
                ADD_FAILURE() << path << " line " << n << "\n  golden: "
                              << (more_w ? w : "<end of file>")
                              << "\n  actual: "
                              << (more_g ? g : "<end of file>");
                break;
            }
        }
    }
}

TEST_F(CritPathTest, RingWraparoundMidRequestDegradesGracefully)
{
    // A ring too small for one call: the oldest events (the request's
    // opening span and flow anchor) are overwritten. The analyzer
    // must clamp, flag the report incomplete, and still attribute
    // every surviving cycle.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("server");
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            call.setReplyLen(call.requestLen());
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.setCapacity(16);
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, id, 0, 2048);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(tracer.size(), 16u) << "call too small to wrap the ring";

    auto reports = critpath::analyze(tracer.events());
    for (const critpath::RequestReport &r : reports) {
        expectExact(r); // holds even for a clamped window
        EXPECT_FALSE(r.complete && r.flowClosed)
            << "a wrapped request cannot be fully reconstructed";
    }
}

TEST_F(CritPathTest, FaultInjectedServerDeathStillBalancesSpans)
{
    // KillServer mid-handler: the call unwinds with ServiceDead, yet
    // the RAII span closers must still end every span so the request
    // window stays exactly attributable.
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("victim");
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            call.setReplyLen(call.requestLen());
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    FaultPlan plan;
    FaultEvent ev;
    ev.callSeq = 1;
    ev.op = FaultOp::KillServer;
    ev.phase = FaultPhase::InHandler;
    plan.events.push_back(ev);
    FaultInjector inj(plan);
    sys->machine().setFaultInjector(&inj);
    inj.enabled = true;

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    auto out = rt.call(core, client, id, 0, 64);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::ServiceDead);
    sys->machine().setFaultInjector(nullptr);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), 1u);
    const critpath::RequestReport &r = reports[0];
    EXPECT_TRUE(r.flowClosed) << "unwind skipped the flow end";
    expectExact(r);
    std::string text = critpath::formatReport(r, tracer);
    EXPECT_EQ(text.find("MISMATCH"), std::string::npos);
}

TEST_F(CritPathTest, AggregateStatsAndTopReport)
{
    auto sys = makeSystem(core::SystemFlavor::Sel4Xpc);
    core::XpcRuntime &rt = sys->runtime();
    hw::Core &core = sys->core(0);

    kernel::Thread &server = sys->spawn("server");
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            uint8_t buf[64];
            call.readMsg(0, buf, sizeof(buf));
            call.setReplyLen(sizeof(buf));
        },
        4);
    kernel::Thread &client = sys->spawn("client");
    sys->manager().grantXcallCap(server, client, id);
    rt.allocRelayMem(core, client, 4096);

    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    req::RequestContext::global().reset();
    constexpr int calls = 5;
    for (int i = 0; i < calls; i++)
        ASSERT_TRUE(rt.call(core, client, id, 0, 64).ok);

    auto reports = critpath::analyze(tracer.events());
    ASSERT_EQ(reports.size(), size_t(calls));
    for (const auto &r : reports)
        expectExact(r);

    critpath::CritPathStats agg;
    agg.addAll(reports);
    EXPECT_EQ(agg.total().count(), uint64_t(calls));
    ASSERT_NE(agg.span("handler"), nullptr);
    EXPECT_EQ(agg.span("handler")->count(), uint64_t(calls));

    std::string top = critpath::formatTop(reports);
    EXPECT_NE(top.find("5 request"), std::string::npos);
    EXPECT_NE(top.find("handler"), std::string::npos);
}

TEST_F(CritPathTest, TraceEventStaysPodWithSideText)
{
    // Satellite guarantee: the ring slot allocates nothing; dynamic
    // text lives in the side ring and survives lookup via textOf.
    static_assert(std::is_trivially_copyable_v<trace::TraceEvent>,
                  "TraceEvent must stay a POD ring slot");
    trace::Tracer &tracer = trace::Tracer::global();
    tracer.clear();
    tracer.instantNow("unit", "note", 7, "hello side ring");
    auto evs = tracer.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(tracer.textOf(evs[0]), "hello side ring");
}

} // namespace
