/**
 * @file
 * Integration tests for the transport layer: the same echo/pipeline
 * services running over seL4 (1/2-copy), Zircon and XPC, plus the
 * XPC runtime specifics (contexts, handover, TOCTTOU defence).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"

namespace xpc::core {
namespace {

std::vector<SystemFlavor>
allFlavors()
{
    return {SystemFlavor::Sel4TwoCopy, SystemFlavor::Sel4OneCopy,
            SystemFlavor::Sel4Xpc, SystemFlavor::Zircon,
            SystemFlavor::ZirconXpc};
}

std::string
flavorTestName(const ::testing::TestParamInfo<SystemFlavor> &info)
{
    std::string n = systemFlavorName(info.param);
    for (auto &c : n)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

class TransportAllFlavors
    : public ::testing::TestWithParam<SystemFlavor>
{
};

TEST_P(TransportAllFlavors, EchoServiceRoundTrips)
{
    SystemOptions opts;
    opts.flavor = GetParam();
    System sys(opts);
    Transport &tr = sys.transport();

    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");

    ServiceDesc desc;
    desc.name = "echo";
    desc.handlerThread = &server;
    ServiceId svc = tr.registerService(desc, [](ServerApi &api) {
        std::vector<uint8_t> buf(api.requestLen());
        api.readRequest(0, buf.data(), buf.size());
        for (auto &b : buf)
            b ^= 0x5a;
        api.writeReply(0, buf.data(), buf.size());
        api.setReplyLen(buf.size());
    });
    tr.connect(client, svc);

    for (uint64_t len : {16ul, 64ul, 300ul, 4096ul, 32768ul}) {
        hw::Core &core = sys.core(0);
        tr.requestArea(core, client, 64 * 1024);
        std::vector<uint8_t> data(len);
        for (uint64_t i = 0; i < len; i++)
            data[i] = uint8_t(i * 3 + 1);
        tr.clientWrite(core, client, 0, data.data(), len);
        CallResult r = tr.call(core, client, svc, 9, len, 64 * 1024);
        ASSERT_TRUE(r.ok) << "len " << len;
        EXPECT_EQ(r.replyLen, len);
        std::vector<uint8_t> got(len);
        tr.clientRead(core, client, 0, got.data(), len);
        for (uint64_t i = 0; i < len; i++)
            ASSERT_EQ(got[i], uint8_t(data[i] ^ 0x5a)) << i;
    }
}

TEST_P(TransportAllFlavors, TwoHopPipelineDeliversSubrange)
{
    SystemOptions opts;
    opts.flavor = GetParam();
    System sys(opts);
    Transport &tr = sys.transport();

    kernel::Thread &backend_t = sys.spawn("backend");
    kernel::Thread &front_t = sys.spawn("frontend");
    kernel::Thread &client = sys.spawn("client");

    // Backend: increments each byte of its request, replies in place.
    ServiceDesc bd;
    bd.name = "backend";
    bd.handlerThread = &backend_t;
    ServiceId backend = tr.registerService(bd, [](ServerApi &api) {
        std::vector<uint8_t> buf(api.requestLen());
        api.readRequest(0, buf.data(), buf.size());
        for (auto &b : buf)
            b = uint8_t(b + 1);
        api.writeReply(0, buf.data(), buf.size());
        api.setReplyLen(buf.size());
    });

    // Frontend: forwards bytes [8, 8+N) of its request to the
    // backend, then replies with its (now updated) whole request.
    ServiceDesc fd;
    fd.name = "frontend";
    fd.handlerThread = &front_t;
    fd.callees = {backend};
    ServiceId frontend =
        tr.registerService(fd, [backend](ServerApi &api) {
            uint64_t n = api.requestLen() - 8;
            api.callService(backend, 0, 8, n);
            api.replyFromRequest(0, api.requestLen());
        });

    tr.connect(client, frontend);
    tr.connect(front_t, backend);

    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 4096);
    std::vector<uint8_t> msg(40);
    for (size_t i = 0; i < msg.size(); i++)
        msg[i] = uint8_t(i);
    tr.clientWrite(core, client, 0, msg.data(), msg.size());
    CallResult r = tr.call(core, client, frontend, 0, msg.size(),
                           4096);
    ASSERT_TRUE(r.ok);
    std::vector<uint8_t> got(msg.size());
    tr.clientRead(core, client, 0, got.data(), got.size());
    for (size_t i = 0; i < msg.size(); i++) {
        uint8_t expect = i < 8 ? msg[i] : uint8_t(msg[i] + 1);
        EXPECT_EQ(got[i], expect) << "byte " << i;
    }
}

TEST_P(TransportAllFlavors, FaultedScratchStagingDoesNotCall)
{
    // A scratch call whose staging copy faults must not reach the
    // callee: the scratch area still holds the previous request, so
    // the handler would run on stale bytes.
    SystemOptions opts;
    opts.flavor = GetParam();
    System sys(opts);
    Transport &tr = sys.transport();

    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &caller = sys.spawn("caller");
    int calls = 0;
    uint8_t seen = 0;
    ServiceDesc desc;
    desc.name = "sink";
    desc.handlerThread = &server;
    ServiceId svc = tr.registerService(desc, [&](ServerApi &api) {
        calls++;
        api.readRequest(0, &seen, 1);
        api.writeReply(0, &seen, 1);
        api.setReplyLen(1);
    });
    tr.connect(caller, svc);
    hw::Core &core = sys.core(0);
    tr.prepareScratch(core, caller, 4096);

    FaultInjector inj(FaultPlan{});
    sys.machine().setFaultInjector(&inj);
    uint8_t req = 0x11, reply = 0;
    ASSERT_EQ(tr.scratchCall(core, caller, false, svc, 0, &req, 1,
                             &reply, 1),
              1u);
    ASSERT_EQ(calls, 1);

    req = 0x22;
    inj.armMemFault(); // consumed by the staging copy
    EXPECT_EQ(tr.scratchCall(core, caller, false, svc, 0, &req, 1,
                             &reply, 1),
              Transport::scratchFailed);
    EXPECT_FALSE(inj.memFaultArmed());
    EXPECT_EQ(calls, 1) << "the callee ran on byte 0x" << std::hex
                        << int(seen);
    sys.machine().setFaultInjector(nullptr);
}

/** Which default-off layer a System runs with. */
enum class OffLayer
{
    None,
    Deadline,
    Injector,
    Tracer,
};

/**
 * A fresh System with @p layer switched on but never striking (the
 * tracer only records): an echo call and a two-hop handover at 0 B,
 * 64 B and 4 KiB. @return each call's oneWay, roundTrip and
 * handlerCycles, then the system's stat dump.
 */
std::string
offLayerRun(SystemFlavor flavor, OffLayer layer)
{
    SystemOptions opts;
    opts.flavor = flavor;
    if (layer == OffLayer::Deadline)
        opts.deadlineCycles = Cycles(uint64_t(1) << 40);
    System sys(opts);
    trace::Tracer &tracer = sys.machine().tracer();
    if (layer == OffLayer::Tracer)
        tracer.setEnabled(true);
    FaultInjector inj(FaultPlan{});
    if (layer == OffLayer::Injector) {
        sys.machine().setFaultInjector(&inj);
        inj.enabled = true;
    }
    Transport &tr = sys.transport();
    kernel::Thread &back_t = sys.spawn("back");
    kernel::Thread &front_t = sys.spawn("front");
    kernel::Thread &client = sys.spawn("client");

    ServiceDesc bd;
    bd.name = "back";
    bd.handlerThread = &back_t;
    ServiceId back = tr.registerService(bd, [](ServerApi &api) {
        std::vector<uint8_t> buf(api.requestLen());
        api.readRequest(0, buf.data(), buf.size());
        for (auto &b : buf)
            b ^= 0x5a;
        api.writeReply(0, buf.data(), buf.size());
        api.setReplyLen(buf.size());
    });
    ServiceDesc fd;
    fd.name = "front";
    fd.handlerThread = &front_t;
    fd.callees = {back};
    ServiceId front = tr.registerService(fd, [back](ServerApi &api) {
        api.callService(back, 0, 0, api.requestLen());
        api.replyFromRequest(0, api.requestLen());
    });
    tr.connect(client, back);
    tr.connect(client, front);
    tr.connect(front_t, back);

    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 8192);
    std::ostringstream os;
    for (uint64_t len : {0ul, 64ul, 4096ul}) {
        std::vector<uint8_t> data(len, uint8_t(len + 1));
        for (ServiceId svc : {back, front}) {
            EXPECT_TRUE(
                tr.clientWrite(core, client, 0, data.data(), len));
            CallResult r = tr.call(core, client, svc, 0, len, 8192);
            EXPECT_TRUE(r.ok) << "len " << len << " svc " << svc;
            os << r.oneWay.value() << " " << r.roundTrip.value() << " "
               << r.handlerCycles.value() << "\n";
        }
    }
    sys.stats().dumpJson(os);
    sys.machine().setFaultInjector(nullptr);
    if (layer == OffLayer::Tracer) {
        EXPECT_GT(tracer.size(), 0u) << "the traced run recorded nothing";
    }
    return os.str();
}

TEST_P(TransportAllFlavors, OffLayersChangeNothing)
{
    // Off-switch test for the call bracket's two default-off layers:
    // a deadline that never expires and a fault injector with nothing
    // scheduled must leave every cycle and every stat as they are.
    // Tracing is observational: its spans must not cost a cycle.
    std::string plain = offLayerRun(GetParam(), OffLayer::None);
    EXPECT_EQ(offLayerRun(GetParam(), OffLayer::Deadline), plain);
    EXPECT_EQ(offLayerRun(GetParam(), OffLayer::Injector), plain);
    EXPECT_EQ(offLayerRun(GetParam(), OffLayer::Tracer), plain);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, TransportAllFlavors, ::testing::ValuesIn(allFlavors()),
    flavorTestName);

class CopyingHandover : public ::testing::TestWithParam<SystemFlavor>
{
};

TEST_P(CopyingHandover, FaultedStagingDoesNotCallBack)
{
    // The copying handover stages the forwarded window into the
    // server's own message area before calling. When that staging
    // faults, the next hop must not run on a zero-filled or stale
    // stage; the invocation fails with CopyFault instead. A 256-byte
    // request faults the read of the window; a 32-byte one travels
    // in seL4's message registers, so there the fault hits the write
    // into the server's message area.
    SystemOptions opts;
    opts.flavor = GetParam();
    System sys(opts);
    Transport &tr = sys.transport();

    kernel::Thread &back_t = sys.spawn("back");
    kernel::Thread &front_t = sys.spawn("front");
    kernel::Thread &client = sys.spawn("client");
    FaultInjector inj(FaultPlan{});
    sys.machine().setFaultInjector(&inj);

    int back_calls = 0;
    ServiceDesc bd;
    bd.name = "back";
    bd.handlerThread = &back_t;
    ServiceId back = tr.registerService(bd, [&](ServerApi &api) {
        back_calls++;
        api.setReplyLen(api.requestLen());
    });
    bool arm = false;
    ServiceDesc fd;
    fd.name = "front";
    fd.handlerThread = &front_t;
    fd.callees = {back};
    ServiceId front = tr.registerService(fd, [&](ServerApi &api) {
        uint64_t len = api.requestLen();
        if (arm)
            inj.armMemFault(); // consumed by the handover staging
        api.callService(back, 0, len / 4, len / 4);
        api.replyFromRequest(0, len);
    });
    tr.connect(client, front);
    tr.connect(front_t, back);

    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 4096);
    for (uint64_t len : {256ul, 32ul}) {
        SCOPED_TRACE(len);
        std::vector<uint8_t> msg(len, 0x5a);
        arm = false;
        ASSERT_TRUE(tr.clientWrite(core, client, 0, msg.data(), len));
        ASSERT_TRUE(tr.call(core, client, front, 0, len, 4096).ok);
        int before = back_calls;
        ASSERT_GT(before, 0);

        arm = true;
        ASSERT_TRUE(tr.clientWrite(core, client, 0, msg.data(), len));
        CallResult r = tr.call(core, client, front, 0, len, 4096);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.status, TransportStatus::CopyFault);
        EXPECT_FALSE(inj.memFaultArmed());
        EXPECT_EQ(back_calls, before)
            << "the next hop ran on a faulted stage";
    }
    sys.machine().setFaultInjector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Copying, CopyingHandover,
    ::testing::Values(SystemFlavor::Sel4TwoCopy, SystemFlavor::Sel4OneCopy,
                      SystemFlavor::Zircon),
    flavorTestName);

class XpcTransportTest : public ::testing::Test
{
  protected:
    XpcTransportTest()
    {
        SystemOptions opts;
        opts.flavor = SystemFlavor::Sel4Xpc;
        sys = std::make_unique<System>(opts);
    }

    std::unique_ptr<System> sys;
};

TEST_F(XpcTransportTest, XpcIsFasterThanBaselines)
{
    auto measure = [](SystemFlavor flavor, uint64_t len) {
        SystemOptions opts;
        opts.flavor = flavor;
        System sys(opts);
        Transport &tr = sys.transport();
        kernel::Thread &server = sys.spawn("server");
        kernel::Thread &client = sys.spawn("client");
        ServiceDesc desc;
        desc.name = "echo";
        desc.handlerThread = &server;
        ServiceId svc =
            tr.registerService(desc, [](ServerApi &api) {
                api.replyFromRequest(0, api.requestLen());
            });
        tr.connect(client, svc);
        hw::Core &core = sys.core(0);
        tr.requestArea(core, client, 64 * 1024);
        std::vector<uint8_t> data(len, 0x77);
        uint64_t total = 0;
        for (int i = 0; i < 6; i++) {
            tr.clientWrite(core, client, 0, data.data(), len);
            CallResult r =
                tr.call(core, client, svc, 0, len, 64 * 1024);
            EXPECT_TRUE(r.ok);
            if (i >= 2) // warm iterations only
                total += r.roundTrip.value();
        }
        return total / 4;
    };

    for (uint64_t len : {64ul, 4096ul}) {
        uint64_t xpc = measure(SystemFlavor::Sel4Xpc, len);
        uint64_t sel4 = measure(SystemFlavor::Sel4TwoCopy, len);
        uint64_t zircon = measure(SystemFlavor::Zircon, len);
        EXPECT_GT(sel4, xpc * 2) << "len " << len;
        EXPECT_GT(zircon, sel4) << "len " << len;
    }
}

TEST_F(XpcTransportTest, ContextExhaustionReturnsError)
{
    XpcRuntime &rt = sys->runtime();
    kernel::Thread &server = sys->spawn("server");
    kernel::Thread &client = sys->spawn("client");

    uint64_t inner = 0;
    // A handler that re-enters itself once; with maxContexts=1 the
    // nested call must be rejected by the trampoline.
    uint64_t id = rt.registerEntry(
        server, server,
        [&](XpcServerCall &call) {
            if (call.opcode() == 0) {
                Cycles before = call.core().now();
                auto out = call.callNested(inner, 1, 0, 16);
                Cycles elapsed = call.core().now() - before;
                EXPECT_FALSE(out.ok);
                // The rejected call paid for xcall, trampoline and
                // xret, and reports it.
                EXPECT_GT(out.roundTrip.value(), 0u);
                EXPECT_LE(out.roundTrip.value(), elapsed.value());
            }
        },
        1);
    inner = id;
    sys->manager().grantXcallCap(server, client, id);
    sys->manager().grantXcallCap(server, server, id);

    hw::Core &core = sys->core(0);
    rt.allocRelayMem(core, client, 4096);
    auto out = rt.call(core, client, id, 0, 64);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(rt.contextExhausted.value(), 1u);
}

TEST_F(XpcTransportTest, OwnershipTransfersAlongChain)
{
    // TOCTTOU defence: while the callee runs, the effective segment
    // is the callee's view; there is exactly one active window per
    // core, so caller and callee can never race on the bytes.
    XpcRuntime &rt = sys->runtime();
    kernel::Thread &server = sys->spawn("server");
    kernel::Thread &client = sys->spawn("client");

    bool checked = false;
    uint64_t id = rt.registerEntry(
        server, server,
        [&](XpcServerCall &call) {
            // The callee owns the segment now; its view is valid.
            mem::SegWindow w =
                engine::XpcEngine::effectiveSeg(call.core().csrs);
            EXPECT_TRUE(w.valid);
            checked = true;
        },
        2);
    sys->manager().grantXcallCap(server, client, id);

    hw::Core &core = sys->core(0);
    RelaySegHandle seg = rt.allocRelayMem(core, client, 4096);
    EXPECT_TRUE(core.csrs.segReg.valid);
    EXPECT_EQ(core.csrs.segId, seg.segId);
    auto out = rt.call(core, client, id, 0, 128);
    EXPECT_TRUE(out.ok);
    EXPECT_TRUE(checked);
    // Ownership returned to the client.
    EXPECT_EQ(core.csrs.segId, seg.segId);
}

TEST_F(XpcTransportTest, NegotiatedAppendSumsAlongChain)
{
    Transport &tr = sys->transport();
    kernel::Thread &a = sys->spawn("a");
    kernel::Thread &b = sys->spawn("b");
    kernel::Thread &c = sys->spawn("c");

    ServiceDesc dc;
    dc.name = "disk";
    dc.handlerThread = &c;
    dc.selfAppendBytes = 16;
    ServiceId disk = tr.registerService(dc, [](ServerApi &) {});

    ServiceDesc db;
    db.name = "fs";
    db.handlerThread = &b;
    db.selfAppendBytes = 64;
    db.callees = {disk};
    ServiceId fs = tr.registerService(db, [](ServerApi &) {});

    ServiceDesc da;
    da.name = "net";
    da.handlerThread = &a;
    da.selfAppendBytes = 100;
    da.callees = {fs, disk};
    ServiceId net = tr.registerService(da, [](ServerApi &) {});

    EXPECT_EQ(tr.negotiatedAppend(disk), 16u);
    EXPECT_EQ(tr.negotiatedAppend(fs), 80u);
    EXPECT_EQ(tr.negotiatedAppend(net), 180u);
    EXPECT_EQ(tr.lookup("fs"), fs);
}

TEST_F(XpcTransportTest, PartialContextIsCheaper)
{
    auto measure = [](TrampolineMode mode) {
        SystemOptions opts;
        opts.flavor = SystemFlavor::Sel4Xpc;
        opts.runtimeOpts.trampoline = mode;
        System sys(opts);
        XpcRuntime &rt = sys.runtime();
        kernel::Thread &server = sys.spawn("server");
        kernel::Thread &client = sys.spawn("client");
        uint64_t id = rt.registerEntry(server, server,
                                       [](XpcServerCall &) {}, 2);
        sys.manager().grantXcallCap(server, client, id);
        hw::Core &core = sys.core(0);
        rt.allocRelayMem(core, client, 4096);
        uint64_t total = 0;
        for (int i = 0; i < 6; i++) {
            auto out = rt.call(core, client, id, 0, 0);
            EXPECT_TRUE(out.ok);
            if (i >= 2)
                total += out.roundTrip.value();
        }
        return total / 4;
    };
    EXPECT_GT(measure(TrampolineMode::FullContext),
              measure(TrampolineMode::PartialContext));
}

} // namespace
} // namespace xpc::core
