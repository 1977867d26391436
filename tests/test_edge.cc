/**
 * @file
 * Edge-case and failure-injection tests across modules: boundary
 * message sizes, exhausted resources, error codes, odd parcel
 * shapes, misbehaving handlers.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "binder/binder.hh"
#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/fs/xv6fs.hh"
#include "services/proto.hh"
#include "sim/random.hh"

namespace xpc {
namespace {

// --------------------------------------------------------------------
// Message-size boundaries on the seL4 paths.
// --------------------------------------------------------------------

class MsgBoundary : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MsgBoundary, ExactBoundarySizesRoundTrip)
{
    uint64_t len = GetParam();
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4TwoCopy;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    core::ServiceDesc desc;
    desc.name = "echo";
    desc.handlerThread = &server;
    core::ServiceId svc =
        tr.registerService(desc, [](core::ServerApi &api) {
            api.replyFromRequest(0, api.requestLen());
        });
    tr.connect(client, svc);

    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 256 * 1024);
    std::vector<uint8_t> data(len);
    for (uint64_t i = 0; i < len; i++)
        data[i] = uint8_t(i * 5 + 1);
    if (len > 0)
        tr.clientWrite(core, client, 0, data.data(), len);
    auto r = tr.call(core, client, svc, 0, len, 256 * 1024);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.replyLen, len);
    if (len > 0) {
        std::vector<uint8_t> got(len);
        tr.clientRead(core, client, 0, got.data(), len);
        EXPECT_EQ(got, data);
    }
}

// 32 = register limit; 33/120 = IPC buffer window; 121 = first
// shared-memory size; 131072 = deep into shared memory.
INSTANTIATE_TEST_SUITE_P(Boundaries, MsgBoundary,
                         ::testing::Values(0ul, 1ul, 31ul, 32ul, 33ul,
                                           119ul, 120ul, 121ul,
                                           131072ul));

// --------------------------------------------------------------------
// Engine edges.
// --------------------------------------------------------------------

TEST(EngineEdge, PrefetchOfInvalidEntryNeverPoisons)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.engineOpts.engineCache = true;
    core::System sys(opts);
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    uint64_t id = sys.runtime().registerEntry(
        server, server, [](core::XpcServerCall &) {}, 2);
    sys.manager().grantXcallCap(server, client, id);
    hw::Core &core = sys.core(0);
    sys.runtime().allocRelayMem(core, client, 4096);

    // Prefetch something bogus, then an entry the caller cannot call.
    sys.engine().prefetch(core, 9999999);
    auto out = sys.runtime().call(core, client, id, 0, 0);
    EXPECT_TRUE(out.ok);

    kernel::Thread &other = sys.spawn("other");
    uint64_t forbidden = sys.runtime().registerEntry(
        other, other, [](core::XpcServerCall &) {}, 2);
    sys.engine().prefetch(core, forbidden);
    auto denied = sys.runtime().call(core, client, forbidden, 0, 0);
    EXPECT_FALSE(denied.ok);
    EXPECT_EQ(denied.exc, engine::XpcException::InvalidXcallCap);
}

TEST(EngineEdge, ExceptionCounterTracksFaults)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    kernel::Thread &client = sys.spawn("client");
    hw::Core &core = sys.core(0);
    sys.runtime().allocRelayMem(core, client, 4096);
    uint64_t before = sys.engine().exceptions.value();
    sys.engine().xcall(core, 500, 0);            // invalid entry
    sys.engine().xret(core);                     // empty stack
    sys.engine().swapseg(core, 1u << 20);        // bad index
    sys.engine().setSegMask(core, 0, 1 << 20);   // mask too large
    EXPECT_EQ(sys.engine().exceptions.value(), before + 4);
}

TEST(EngineEdge, ReadOnlySegmentWindowBlocksWrites)
{
    hw::Machine machine(hw::rocketU500(), 64 << 20);
    mem::SegWindow w{true, uint64_t(0x30) << 32, 0x40000, 4096, true,
                     false};
    mem::TransContext ctx;
    ctx.seg = &w;
    uint8_t b = 1;
    auto res = machine.mem().write(0, ctx, w.vaBase, &b, 1);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.fault, mem::FaultKind::SegPermissionFault);
    auto rres = machine.mem().read(0, ctx, w.vaBase, &b, 1);
    EXPECT_TRUE(rres.ok);
}

TEST(EngineEdge, NestedUnwindRevokesSegsInnermostFirstBlockingLateWrites)
{
    // A -> B -> C with a *distinct* relay segment mapped at each
    // level: segA carries the outer call, B swaps its own scratch
    // segB in for the nested hop. The innermost handler then runs the
    // full timeout-cleanup sequence by hand - revoke + unwind, one
    // level at a time, innermost first - and at every level a late
    // write through the revoked mapping must fault (lateWritesBlocked)
    // instead of landing in reclaimed frames.
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::XpcRuntime &rt = sys.runtime();
    hw::Core &core = sys.core(0);
    kernel::Thread &a = sys.spawn("A");
    kernel::Thread &b = sys.spawn("B");
    kernel::Thread &c = sys.spawn("C");

    // B's scratch segment for the nested hop, parked in its seg-list
    // slot until B's handler swaps it in.
    core::RelaySegHandle segB = rt.allocRelayMem(core, b, 4096);
    ASSERT_EQ(rt.engine().swapseg(core, segB.slot),
              engine::XpcException::None);

    core::RelaySegHandle segA; // assigned before the call launches
    bool c_ran = false;
    uint64_t c_id = rt.registerEntry(
        c, c,
        [&](core::XpcServerCall &call) {
            hw::Core &cc = call.core();
            kernel::XpcManager &mgr = sys.manager();
            c_ran = true;
            ASSERT_EQ(cc.csrs.linkTop, 2u);
            // Level 2 (B->C): B's scratch segment is the active one.
            EXPECT_EQ(cc.csrs.segId, segB.segId);
            // Innermost first: segB dies while segA stays live.
            mgr.revokeRelaySeg(segB.segId);
            EXPECT_FALSE(mgr.segById(segB.segId).has_value());
            EXPECT_TRUE(mgr.segById(segA.segId).has_value());
            // C's reply store arrives after the revocation: it must
            // fault on the scrubbed seg-reg, never land.
            uint8_t byte = 0xee;
            call.writeMsg(0, &byte, 1);
            EXPECT_EQ(rt.lateWritesBlocked.value(), 1u);
            EXPECT_EQ(call.failStatus,
                      kernel::CallStatus::SegRevoked);
            // Pop B->C: B's frame returns, but its segment was
            // revoked while the callee held it - not reinstalled.
            ASSERT_TRUE(mgr.forceUnwind(cc));
            EXPECT_EQ(cc.csrs.linkTop, 1u);
            EXPECT_EQ(cc.csrs.pageTableRoot,
                      b.process()->space().root());
            EXPECT_EQ(cc.csrs.segId, 0u);
            // Level 1 (A->B): now segA goes; B's own late write
            // faults the same way.
            mgr.revokeRelaySeg(segA.segId);
            EXPECT_FALSE(rt.segWrite(cc, 0, &byte, 1));
            EXPECT_EQ(rt.lateWritesBlocked.value(), 2u);
            // Pop A->B: A's frame returns, also without its
            // (revoked) segment.
            ASSERT_TRUE(mgr.forceUnwind(cc));
            EXPECT_EQ(cc.csrs.linkTop, 0u);
            EXPECT_EQ(cc.csrs.pageTableRoot,
                      a.process()->space().root());
            EXPECT_EQ(cc.csrs.segId, 0u);
        },
        2);
    core::XpcCallOutcome c_saw;
    uint64_t b_id = rt.registerEntry(
        b, b,
        [&](core::XpcServerCall &call) {
            hw::Core &cc = call.core();
            // Hop to C through B's own segment, not a seg-mask view
            // of A's: swap the parked scratch segment in.
            ASSERT_EQ(rt.engine().swapseg(cc, segB.slot),
                      engine::XpcException::None);
            EXPECT_EQ(cc.csrs.segId, segB.segId);
            c_saw = rt.callCurrent(cc, c_id, 0, 16, &b);
        },
        2);
    sys.manager().grantXcallCap(b, a, b_id);
    sys.manager().grantXcallCap(c, b, c_id);
    segA = rt.allocRelayMem(core, a, 4096);

    auto out = rt.call(core, a, b_id, 0, 64);
    EXPECT_TRUE(c_ran);
    // Both xrets found their record already consumed; each leg
    // surfaced a linkage error instead of crashing.
    EXPECT_FALSE(c_saw.ok);
    EXPECT_EQ(c_saw.exc, engine::XpcException::InvalidLinkage);
    EXPECT_FALSE(out.ok);
    // Level 0: A resumed without a relay window; both segments are
    // gone and A's own late write faults too.
    EXPECT_EQ(core.csrs.linkTop, 0u);
    EXPECT_EQ(core.csrs.segId, 0u);
    EXPECT_FALSE(sys.manager().segById(segA.segId).has_value());
    uint8_t byte = 0x5a;
    EXPECT_FALSE(rt.segWrite(core, 0, &byte, 1));
    EXPECT_EQ(rt.lateWritesBlocked.value(), 3u);
}

// --------------------------------------------------------------------
// FS error codes and limits.
// --------------------------------------------------------------------

class EdgeDisk : public services::fs::BlockIo
{
  public:
    explicit EdgeDisk(uint32_t n)
        : blocks(n, std::vector<uint8_t>(services::fs::fsBlockBytes,
                                         0))
    {}

    void
    read(uint32_t b, void *dst) override
    {
        std::memcpy(dst, blocks.at(b).data(),
                    services::fs::fsBlockBytes);
    }

    void
    write(uint32_t b, const void *src) override
    {
        std::memcpy(blocks.at(b).data(), src,
                    services::fs::fsBlockBytes);
    }

    std::vector<std::vector<uint8_t>> blocks;
};

TEST(FsEdge, ErrorCodesAreErrnoLike)
{
    EdgeDisk disk(512);
    services::fs::Xv6Fs::mkfs(disk, 512);
    services::fs::Xv6Fs fs;
    ASSERT_EQ(fs.mount(disk), services::fs::fsOk);

    EXPECT_EQ(fs.open("/missing", false), services::fs::fsErrNotFound);
    EXPECT_EQ(fs.pread(42, 0, nullptr, 0), services::fs::fsErrBadFd);
    EXPECT_EQ(fs.close(42), services::fs::fsErrBadFd);
    EXPECT_EQ(fs.unlink("/missing"), services::fs::fsErrNotFound);
    EXPECT_EQ(fs.open("/a/b", true), services::fs::fsErrNotFound);

    ASSERT_EQ(fs.mkdir("/dir"), services::fs::fsOk);
    EXPECT_EQ(fs.mkdir("/dir"), services::fs::fsErrExists);
    EXPECT_EQ(fs.open("/dir", false), services::fs::fsErrIsDir);

    std::string longname(64, 'x');
    int64_t r = fs.open("/" + longname, true);
    EXPECT_EQ(r, services::fs::fsErrNameTooLong);
}

TEST(FsEdge, DiskFullReportsNoSpace)
{
    EdgeDisk disk(96); // tiny: metadata eats most of it
    services::fs::Xv6Fs::mkfs(disk, 96);
    services::fs::Xv6Fs fs;
    ASSERT_EQ(fs.mount(disk), services::fs::fsOk);
    int64_t fd = fs.open("/big", true);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> chunk(services::fs::fsBlockBytes, 1);
    int64_t written_total = 0;
    int64_t rc = 0;
    for (int i = 0; i < 200; i++) {
        rc = fs.pwrite(fd, uint64_t(written_total), chunk.data(),
                       chunk.size());
        if (rc <= 0 || rc < int64_t(chunk.size()))
            break;
        written_total += rc;
    }
    EXPECT_TRUE(rc == services::fs::fsErrNoSpace ||
                rc < int64_t(chunk.size()));
    // Reads of what fit still succeed.
    if (written_total > 0) {
        std::vector<uint8_t> out(static_cast<size_t>(written_total), uint8_t(0));
        EXPECT_EQ(fs.pread(fd, 0, out.data(), out.size()),
                  written_total);
    }
}

TEST(FsEdge, ZeroLengthOpsAreNoOps)
{
    EdgeDisk disk(512);
    services::fs::Xv6Fs::mkfs(disk, 512);
    services::fs::Xv6Fs fs;
    ASSERT_EQ(fs.mount(disk), services::fs::fsOk);
    int64_t fd = fs.open("/f", true);
    EXPECT_EQ(fs.pwrite(fd, 0, "", 0), 0);
    EXPECT_EQ(fs.pread(fd, 0, nullptr, 0), 0);
    EXPECT_EQ(fs.fileSize(fd), 0);
}

// --------------------------------------------------------------------
// Binder edges.
// --------------------------------------------------------------------

TEST(BinderEdge, MultipleServicesResolveIndependently)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    binder::BinderSystem bs(sys.kern(), &sys.runtime(),
                            binder::BinderMode::XpcCall);
    kernel::Thread &s1 = sys.spawn("svc1");
    kernel::Thread &s2 = sys.spawn("svc2");
    kernel::Thread &client = sys.spawn("client");

    bs.addService("alpha", s1, [](binder::BinderTxn &txn) {
        txn.reply().writeInt32(1);
    });
    bs.addService("beta", s2, [](binder::BinderTxn &txn) {
        txn.reply().writeInt32(2);
    });
    uint64_t ha = bs.getService(client, "alpha");
    uint64_t hb = bs.getService(client, "beta");
    EXPECT_NE(ha, hb);
    binder::Parcel empty;
    empty.writeInt32(0);
    auto ra = bs.transact(sys.core(0), client, ha, 0, empty);
    auto rb = bs.transact(sys.core(0), client, hb, 0, empty);
    EXPECT_EQ(ra.reply.readInt32(), 1);
    EXPECT_EQ(rb.reply.readInt32(), 2);
}

TEST(BinderEdge, EmptyReplyIsValid)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    binder::BinderSystem bs(sys.kern(), &sys.runtime(),
                            binder::BinderMode::Baseline);
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    bs.addService("oneway", server, [](binder::BinderTxn &) {});
    uint64_t h = bs.getService(client, "oneway");
    binder::Parcel p;
    p.writeInt32(7);
    auto out = bs.transact(sys.core(0), client, h, 3, p);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.reply.size(), 0u);
}

TEST(BinderEdge, AshmemBoundsAreEnforced)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    binder::BinderSystem bs(sys.kern(), &sys.runtime(),
                            binder::BinderMode::XpcAshmem);
    kernel::Thread &owner = sys.spawn("owner");
    auto region = bs.ashmemCreate(sys.core(0), owner, 8192);
    uint8_t b = 0;
    EXPECT_DEATH(bs.ashmemRead(sys.core(0), region, 8192, &b, 1),
                 "out of range");
}

// --------------------------------------------------------------------
// Recording transport + negotiation edges.
// --------------------------------------------------------------------

TEST(RecordingEdge, ResetClearsAndLookupWorksThroughDecorator)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::RecordingTransport rec(sys.transport());
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    core::ServiceDesc desc;
    desc.name = "svc";
    desc.handlerThread = &server;
    desc.selfAppendBytes = 48;
    core::ServiceId svc =
        rec.registerService(desc, [](core::ServerApi &api) {
            api.setReplyLen(0);
        });
    rec.connect(client, svc);
    EXPECT_EQ(rec.lookup("svc"), svc);
    EXPECT_EQ(rec.negotiatedAppend(svc), 48u);

    hw::Core &core = sys.core(0);
    rec.requestArea(core, client, 4096);
    rec.call(core, client, svc, 0, 16, 4096);
    EXPECT_EQ(rec.calls, 1u);
    rec.reset();
    EXPECT_EQ(rec.calls, 0u);
}

TEST(RecordingEdge, AggregatesEqualTheirPerCallSums)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::RecordingTransport rec(sys.transport());
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    core::ServiceDesc desc;
    desc.name = "echo";
    desc.handlerThread = &server;
    core::ServiceId svc =
        rec.registerService(desc, [](core::ServerApi &api) {
            api.core().spend(Cycles(api.requestLen()));
            api.replyFromRequest(0, api.requestLen());
        });
    rec.connect(client, svc);
    hw::Core &core = sys.core(0);
    rec.requestArea(core, client, 4096);
    rec.prepareScratch(core, client, 4096);
    EXPECT_EQ(rec.transferCycles(), 0u);

    // Each call's payload bytes and IPC overhead, from what the
    // caller sees: two calls at each of three sizes, then one scratch
    // call, whose whole round trip is booked as overhead.
    std::vector<std::pair<uint64_t, uint64_t>> seen;
    for (uint64_t len : {16, 256, 2048, 16, 256, 2048}) {
        core::CallResult r = rec.call(core, client, svc, 0, len, 4096);
        ASSERT_TRUE(r.ok);
        seen.emplace_back(len + r.replyLen,
                          (r.roundTrip - r.handlerCycles).value());
    }
    std::vector<uint8_t> req(256, 0x5a), reply(256);
    Cycles t0 = core.now();
    ASSERT_EQ(rec.scratchCall(core, client, false, svc, 0, req.data(),
                              req.size(), reply.data(), reply.size()),
              256u);
    seen.emplace_back(512, (core.now() - t0).value());

    uint64_t sum = 0, cheapest = UINT64_MAX;
    for (const auto &[bytes, overhead] : seen) {
        sum += overhead;
        cheapest = std::min(cheapest, overhead);
    }
    EXPECT_EQ(rec.calls, 7u);
    EXPECT_EQ(rec.ipcOverheadCycles(), sum);
    EXPECT_EQ(rec.minOverhead, cheapest);
    EXPECT_EQ(rec.transferCycles(), sum - 7 * cheapest);
    // Whole cycle counts sum exactly in a double, in any order.
    for (uint64_t size : {32, 512, 4096}) {
        uint64_t below = 0;
        for (const auto &[bytes, overhead] : seen)
            below += bytes <= size ? overhead : 0;
        EXPECT_EQ(rec.overheadByBytes.cumulativeAt(size),
                  double(below) / double(sum))
            << size << " B";
    }

    rec.reset();
    EXPECT_EQ(rec.calls, 0u);
    EXPECT_EQ(rec.totalBytes, 0u);
    EXPECT_EQ(rec.ipcOverheadCycles(), 0u);
    EXPECT_EQ(rec.minOverhead, 0u);
    EXPECT_EQ(rec.transferCycles(), 0u);
    EXPECT_EQ(rec.overheadByBytes.totalWeight(), 0.0);
}

// --------------------------------------------------------------------
// Zircon edge: message at the channel cap.
// --------------------------------------------------------------------

TEST(ZirconEdge, MaxChannelMessageRoundTrips)
{
    hw::Machine machine(hw::lowRiscKc705(), 256 << 20);
    kernel::ZirconKernel kern(machine);
    kernel::Process &cp = kern.createProcess("c");
    kernel::Process &sp = kern.createProcess("s");
    kernel::Thread &ct = kern.createThread(cp, 0);
    kernel::Thread &st = kern.createThread(sp, 0);
    uint64_t max = kern.params.maxMsgBytes;
    uint64_t ch = kern.createPort(
        st, [&](kernel::ServerCall &call) {
            EXPECT_EQ(call.requestLen(), max);
            uint8_t first;
            call.readRequest(0, &first, 1);
            call.writeReply(0, &first, 1);
            call.setReplyLen(1);
        });
    VAddr req = cp.alloc(max), reply = cp.alloc(max);
    std::vector<uint8_t> data(max, 0x21);
    kern.userWrite(machine.core(0), cp, req, data.data(), max);
    auto out = kern.callPort(machine.core(0), ct, ch, 0, req, max,
                             reply, max);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.replyLen, 1u);
}

} // namespace
} // namespace xpc
