/**
 * @file
 * Causal tracing and critical-path reconstruction: one request must
 * render as a single closed flow across lanes, and the per-span cycle
 * attribution must sum to exactly the request's end-to-end cycles -
 * including under ring wraparound and fault-injected server death.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/system.hh"
#include "core/transport.hh"
#include "sim/crc.hh"
#include "sim/critpath.hh"
#include "sim/fault_injector.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

using namespace xpc;

namespace {

/** @return @p sys's tracer, recording from here on. */
trace::Tracer &
traceOn(core::System &sys)
{
    trace::Tracer &t = sys.machine().tracer();
    t.setEnabled(true);
    t.setCapacity(1 << 14);
    return t;
}

class CritPathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        hand.setEnabled(true);
        hand.setCapacity(1 << 14);
    }

    static std::unique_ptr<core::System>
    makeSystem(core::SystemFlavor flavor)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        return std::make_unique<core::System>(opts);
    }

    /**
     * Record one hand-written top-level request of @p cycles from
     * @p t0: a call span on the client lane around a handler span,
     * then the call bracket's outcome instant and, for a non-default
     * tenant, its tenant instant.
     */
    void
    recordRequest(uint64_t t0, uint64_t cycles, const char *status,
                  uint32_t tenant = 0)
    {
        req::RequestScope scope(ctx);
        hand.begin("xpc", "call", t0, 1001);
        hand.begin("xpc", "handler", t0 + 10, 1002);
        hand.end("xpc", "handler", t0 + cycles - 10, 1002);
        hand.instant("xpc", "outcome", t0 + cycles, 1001, status);
        if (tenant != 0)
            hand.instant("xpc", "tenant", t0 + cycles, 1001,
                         std::to_string(tenant));
        hand.end("xpc", "call", t0 + cycles, 1001);
    }

    /** The request context and tracer of the hand-written traces. */
    req::RequestContext ctx;
    trace::Tracer hand{ctx};
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

    trace::Tracer &tracer = traceOn(*sys);
    auto out = rt.call(core, client, id, 0, 64);
    ASSERT_TRUE(out.ok);

    auto reports = critpath::analyze(tracer);
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

    trace::Tracer &tracer = traceOn(*sys);
    auto out = rt.call(core, client, a_id, 0, 64);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(sys->machine().requests().minted(), 1u);

    auto reports = critpath::analyze(tracer);
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

        trace::Tracer &tracer = traceOn(*sys);
        uint8_t payload[64] = {0x5a};
        tr.clientWrite(core, client, 0, payload, sizeof(payload));
        core::CallResult res =
            tr.call(core, client, svc, 0, sizeof(payload), 4096);
        ASSERT_TRUE(res.ok);

        auto reports = critpath::analyze(tracer);
        ASSERT_EQ(reports.size(), 1u);
        const critpath::RequestReport &r = reports[0];
        EXPECT_TRUE(r.complete);
        EXPECT_TRUE(r.flowClosed);
        EXPECT_GE(r.lanes, 2u);
        expectExact(r);
    }
}

TEST_F(CritPathTest, TwoSystemsInOneProcessShareNoState)
{
    // Two machines side by side, calls interleaved, only the first
    // traced: request ids, trace, lane names and scopes are each
    // machine's own.
    auto a = makeSystem(core::SystemFlavor::Sel4Xpc);
    auto b = makeSystem(core::SystemFlavor::Zircon);
    struct Echo
    {
        kernel::Thread *server, *client;
        core::ServiceId svc;
    };
    auto wire = [](core::System &sys, const char *server_name) {
        Echo e{&sys.spawn(server_name), &sys.spawn("client"), 0};
        core::ServiceDesc desc;
        desc.name = "echo";
        desc.handlerThread = e.server;
        e.svc = sys.transport().registerService(
            desc, [](core::ServerApi &api) {
                api.replyFromRequest(0, api.requestLen());
            });
        sys.transport().connect(*e.client, e.svc);
        sys.transport().requestArea(sys.core(0), *e.client, 4096);
        return e;
    };
    Echo ea = wire(*a, "echo-a");
    Echo eb = wire(*b, "echo-b");
    auto call = [](core::System &sys, const Echo &e) {
        return sys.transport().call(sys.core(0), *e.client, e.svc, 0, 64,
                                    4096);
    };
    trace::Tracer &traced = traceOn(*a);
    for (uint64_t i = 1; i <= 3; i++) {
        EXPECT_TRUE(call(*a, ea).ok);
        EXPECT_TRUE(call(*b, eb).ok);
        EXPECT_EQ(a->machine().requests().minted(), i);
        EXPECT_EQ(b->machine().requests().minted(), i);
    }
    auto reports = critpath::analyze(traced);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].id, 1u);
    EXPECT_EQ(b->machine().tracer().recordedCount(), 0u);

    // The same thread id names a lane of each machine's own.
    ASSERT_EQ(ea.server->id(), eb.server->id());
    uint32_t lane = req::threadLane(uint32_t(ea.server->id()));
    EXPECT_EQ(traced.trackNames().at(lane), "echo-a");
    EXPECT_EQ(b->machine().tracer().trackNames().at(lane), "echo-b");

    // A deadline bound on b's context expires b's calls only.
    req::DeadlineScope expired(b->machine().requests(), 1);
    EXPECT_EQ(a->machine().requests().currentDeadline(), 0u);
    EXPECT_TRUE(call(*a, ea).ok);
    EXPECT_EQ(call(*b, eb).status, core::TransportStatus::DeadlineExpired);
}

/**
 * Compare @p actual with tests/golden/<stem>.json byte for byte. A
 * mismatch reports the first differing line and writes the new
 * output next to the test binary as <stem>.actual.json; copy it over
 * the golden only when the change is intended.
 */
void
expectMatchesGolden(const std::string &stem, const std::string &actual)
{
    std::string path = std::string(XPC_GOLDEN_DIR) + "/" + stem + ".json";
    std::ifstream gf(path);
    EXPECT_TRUE(gf.good()) << "missing golden " << path;
    std::stringstream golden;
    golden << gf.rdbuf();
    if (golden.str() == actual)
        return;

    std::ofstream(stem + ".actual.json") << actual;
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

const core::SystemFlavor goldenFlavors[] = {
    core::SystemFlavor::Sel4TwoCopy, core::SystemFlavor::Sel4OneCopy,
    core::SystemFlavor::Sel4Xpc,     core::SystemFlavor::Zircon,
    core::SystemFlavor::ZirconXpc,
};

/**
 * One scripted scenario through the Transport layer, traced:
 *   1. a tenant-1 client calls "front" under the Critical tier, and
 *      front hands bytes [64, 128) of the request over to "back";
 *   2. tenancy enforcement refuses the client's call into tenant 2;
 *   3. a call to "slow" overruns the system's deadline budget.
 * @return the Chrome-trace export, lane names included.
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

    trace::Tracer &tracer = traceOn(sys);
    {
        req::CriticalityScope tier(sys.machine().requests(),
                                   req::Criticality::Critical);
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
    return os.str();
}

TEST_F(CritPathTest, CallSpansMatchGoldenOnEveryFlavor)
{
    // Byte-for-byte lane names and span, flow and instant stream of
    // the scenario above, pinned per flavor as
    // tests/golden/callspan_<flavor>.json.
    for (auto flavor : goldenFlavors) {
        std::string name = core::systemFlavorName(flavor);
        SCOPED_TRACE(name);
        expectMatchesGolden("callspan_" + name,
                            goldenScenarioTrace(flavor));
    }
}

bool
isXpc(core::SystemFlavor flavor)
{
    return flavor == core::SystemFlavor::Sel4Xpc ||
           flavor == core::SystemFlavor::ZirconXpc;
}

/** The scheduled faults of the chaos golden. */
struct ChaosFault
{
    FaultOp op;
    FaultPhase phase;
    uint32_t arg;
    /** Strikes only where the XPC runtime runs the call. */
    bool xpcOnly;
};

const ChaosFault chaosFaults[] = {
    {FaultOp::CopyFault, FaultPhase::PreXcall, 0, false},
    {FaultOp::CorruptPayload, FaultPhase::PreXcall, 6, false}, // flip
    {FaultOp::CorruptPayload, FaultPhase::PreXcall, 7, false}, // cut
    {FaultOp::MutateAfterHandoff, FaultPhase::InHandler, 1, false},
    {FaultOp::StallServer, FaultPhase::InHandler, 0, false},
    {FaultOp::SlowServer, FaultPhase::InHandler, 4, false},
    {FaultOp::GarbageReply, FaultPhase::PreXret, 3, false},
    {FaultOp::KillServer, FaultPhase::PreXcall, 0, true},
    {FaultOp::KillServer, FaultPhase::InHandler, 0, true},
    {FaultOp::KillServer, FaultPhase::PreXret, 0, true},
    {FaultOp::HangServer, FaultPhase::InHandler, 0, true},
    {FaultOp::RevokeSeg, FaultPhase::InHandler, 0, true},
    {FaultOp::CorruptLinkage, FaultPhase::InHandler, 0, true},
    {FaultOp::CorruptLinkage, FaultPhase::PreXret, 0, true},
    {FaultOp::EngineException, FaultPhase::PreXcall, 1, true},
};

/**
 * One chaos case on a fresh rig: a client calls "front", which hands
 * bytes [64, 128) of the request over to "back", under the system's
 * deadline budget (and the runtime's watchdog on XPC). @p fault is
 * the plan's only event, on call @p seq: 1 is the client's call, 2
 * the handover hop. A second, untraced top-level call follows, to pin
 * what the fault left behind.
 * @return one JSON object: the case, each top-level call's status,
 *         reply length and reply crc32, the injector's report, and
 *         the first call's Chrome export, lane names included.
 */
std::string
chaosCase(core::SystemFlavor flavor, const ChaosFault &fault,
          uint64_t seq, bool envelope)
{
    core::SystemOptions opts;
    opts.flavor = flavor;
    opts.deadlineCycles = Cycles(200000);
    if (isXpc(flavor))
        opts.runtimeOpts.timeoutCycles = Cycles(20000);
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    tr.envelopeEnabled = envelope;

    kernel::Thread &back_t = sys.spawn("back");
    kernel::Thread &front_t = sys.spawn("front");
    kernel::Thread &client = sys.spawn("client");
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
    tr.connect(client, front);
    tr.connect(front_t, back);
    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 4096);

    FaultPlan plan;
    plan.events.push_back({seq, fault.op, fault.phase, fault.arg});
    FaultInjector inj(plan);
    sys.machine().setFaultInjector(&inj);
    inj.enabled = true;

    trace::Tracer &tracer = traceOn(sys);
    std::ostringstream os;
    os << "{\"case\":\"" << faultOpName(fault.op) << "\",\"phase\":"
       << uint32_t(fault.phase) << ",\"arg\":" << fault.arg
       << ",\"seq\":" << seq << ",\"envelope\":" << std::boolalpha
       << envelope << ",\n\"calls\":[";
    std::vector<uint8_t> msg(256), reply(4096);
    std::string trace;
    for (int call = 0; call < 2; call++) {
        for (size_t i = 0; i < msg.size(); i++)
            msg[i] = uint8_t(i * 7 + call);
        if (call > 0)
            os << ",";
        if (tr.clientWrite(core, client, 0, msg.data(), msg.size())) {
            core::CallResult r =
                tr.call(core, client, front, 0, msg.size(), 4096);
            uint64_t len = std::min<uint64_t>(r.replyLen, reply.size());
            tr.clientRead(core, client, 0, reply.data(), len);
            os << "{\"status\":\"" << kernel::callStatusName(r.status)
               << "\",\"replyLen\":" << r.replyLen
               << ",\"crc32\":" << crc32(reply.data(), len) << "}";
        } else {
            os << "{\"staged\":false}";
        }
        if (call == 0) {
            std::ostringstream first;
            tracer.exportChromeJson(first);
            trace = first.str();
            trace.pop_back(); // the trailing newline
            tracer.setEnabled(false);
        }
    }
    inj.enabled = false;
    sys.machine().setFaultInjector(nullptr);
    os << "],\n\"injector\":" << inj.reportJson() << ",\n\"trace\":"
       << trace << "}";
    return os.str();
}

TEST_F(CritPathTest, ChaosOutcomesMatchGoldenOnEveryFlavor)
{
    // Every fault the bracket and the XPC runtime inject, at both
    // hops of a handover, with the envelope off and on, pinned per
    // flavor as tests/golden/chaos_<flavor>.json.
    for (auto flavor : goldenFlavors) {
        std::string name = core::systemFlavorName(flavor);
        SCOPED_TRACE(name);
        std::string actual = "{\"flavor\":\"" + name + "\",\"cases\":[";
        const char *sep = "\n";
        for (bool envelope : {false, true}) {
            for (const ChaosFault &fault : chaosFaults) {
                if (fault.xpcOnly && !isXpc(flavor))
                    continue;
                for (uint64_t seq : {1, 2}) {
                    actual += sep + chaosCase(flavor, fault, seq, envelope);
                    sep = ",\n";
                }
            }
        }
        actual += "\n]}\n";
        expectMatchesGolden("chaos_" + name, actual);
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

    trace::Tracer &tracer = traceOn(*sys);
    tracer.setCapacity(16);
    Cycles t0 = core.now();
    auto out = rt.call(core, client, id, 0, 2048);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(tracer.size(), 16u) << "call too small to wrap the ring";

    auto reports = critpath::analyze(tracer);
    for (const critpath::RequestReport &r : reports) {
        expectExact(r); // holds even for a clamped window
        // The clamp point is a retained event of the call, never
        // earlier than the call itself.
        EXPECT_GE(r.startTs, t0.value());
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

    trace::Tracer &tracer = traceOn(*sys);
    auto out = rt.call(core, client, id, 0, 64);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::ServiceDead);
    sys->machine().setFaultInjector(nullptr);

    auto reports = critpath::analyze(tracer);
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

    trace::Tracer &tracer = traceOn(*sys);
    constexpr int calls = 5;
    for (int i = 0; i < calls; i++)
        ASSERT_TRUE(rt.call(core, client, id, 0, 64).ok);

    auto reports = critpath::analyze(tracer);
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

bool
matches(const std::string &text, const std::string &pattern)
{
    return std::regex_search(text, std::regex(pattern));
}

TEST_F(CritPathTest, EmptyTracerYieldsNoReport)
{
    // An empty trace, or one with instants but no span, is nothing
    // to profile, not an error.
    EXPECT_TRUE(critpath::analyze(hand).empty());
    hand.instant("log", "warn", 5, 0, "no request bound");
    {
        req::RequestScope scope(ctx);
        hand.instant("xpc", "outcome", 5, 1001, "ok");
    }
    auto reports = critpath::analyze(hand);
    EXPECT_TRUE(reports.empty());
    EXPECT_EQ(critpath::formatTop(reports), "critpath top: 0 requests\n");
}

TEST_F(CritPathTest, IntegrityViolationGetsItsOwnRow)
{
    // A detected corruption keeps its own outcome class.
    recordRequest(0, 100, "integrity-violation");
    auto reports = critpath::analyze(hand);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].outcome, "integrity-violation");
    EXPECT_EQ(reports[0].tenant, 0u);
    expectExact(reports[0]);

    std::string top = critpath::formatTop(reports);
    EXPECT_TRUE(matches(top, "\n +integrity-violation +1 +p50 +100 "))
        << top;
    // Untenanted: no per-tenant rows and no tenant column.
    EXPECT_EQ(top.find("outcomes["), std::string::npos) << top;
    EXPECT_TRUE(matches(top, "\n +req +cycles +outcome\n")) << top;
    EXPECT_TRUE(matches(top, "\n +#1 +100 +integrity-violation\n")) << top;
}

TEST_F(CritPathTest, OutcomeClassesAndTenantRows)
{
    // deadline-expired and timeout share the timeout row, overloaded
    // is shed, and a two-tenant run gets one count row per tenant.
    recordRequest(0, 100, "ok", 1);
    recordRequest(200, 120, "ok", 1);
    recordRequest(400, 900, "deadline-expired", 1);
    recordRequest(1400, 700, "timeout", 2);
    recordRequest(2200, 50, "overloaded", 2);
    recordRequest(2300, 110, "ok", 2);
    auto reports = critpath::analyze(hand);
    ASSERT_EQ(reports.size(), 6u);
    EXPECT_EQ(reports[2].outcome, "deadline-expired");
    EXPECT_EQ(reports[2].tenant, 1u);
    EXPECT_EQ(reports[4].outcome, "overloaded");
    EXPECT_EQ(reports[4].tenant, 2u);

    std::string top = critpath::formatTop(reports);
    EXPECT_TRUE(matches(top, "\n +ok +3 +p50 +111 +p99 +120 cyc\n"))
        << top;
    EXPECT_TRUE(matches(top, "\n +shed +1 +p50 +50 +p99 +50 cyc\n"))
        << top;
    EXPECT_TRUE(matches(top, "\n +timeout +2 +p50 +703 +p99 +900 cyc\n"))
        << top;
    EXPECT_EQ(top.find("overloaded"), std::string::npos) << top;
    EXPECT_EQ(top.find("deadline-expired"), std::string::npos) << top;
    EXPECT_NE(top.find("  outcomes[t1]: ok 2, timeout 1\n"),
              std::string::npos)
        << top;
    EXPECT_NE(top.find("  outcomes[t2]: ok 1, shed 1, timeout 1\n"),
              std::string::npos)
        << top;
    EXPECT_TRUE(matches(top, "\n +req +cycles +tenant +outcome\n")) << top;
    EXPECT_TRUE(matches(top, "\n +#3 +900 +t1 +timeout\n")) << top;
    EXPECT_TRUE(matches(top, "\n +#5 +50 +t2 +shed\n")) << top;
}

TEST_F(CritPathTest, TraceEventStaysPodWithSideText)
{
    // Satellite guarantee: the ring slot allocates nothing; dynamic
    // text lives in the side ring and survives lookup via textOf.
    static_assert(std::is_trivially_copyable_v<trace::TraceEvent>,
                  "TraceEvent must stay a POD ring slot");
    hand.instantNow("unit", "note", 7, "hello side ring");
    auto evs = hand.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(hand.textOf(evs[0]), "hello side ring");
}

} // namespace
