/**
 * @file
 * Cross-cutting behaviours: the seL4 slow-path triggers, cross-core
 * Zircon channels, YCSB mix ratios, context-switch CSR swapping, and
 * the negotiation helper in service descriptors.
 */

#include <gtest/gtest.h>

#include "apps/ycsb.hh"
#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/fs_server.hh"
#include "services/web.hh"
#include "sim/random.hh"

namespace xpc {
namespace {

TEST(Sel4Paths, PriorityMismatchForcesSlowPath)
{
    hw::Machine machine(hw::rocketU500(), 128 << 20);
    kernel::Sel4Kernel kern(machine);
    kernel::Process &cp = kern.createProcess("c");
    kernel::Process &sp = kern.createProcess("s");
    kernel::Thread &ct = kern.createThread(cp, 0);
    kernel::Thread &st = kern.createThread(sp, 0);
    st.sched.priority = 5; // higher than the client's 0
    uint64_t ep = kern.createPort(st, [](kernel::ServerCall &) {});
    kern.grantPort(ct, ep);
    VAddr req = cp.alloc(4096), reply = cp.alloc(4096);
    auto out = kern.callPort(machine.core(0), ct, ep, 1, req, 8, reply,
                             32);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(kern.slowpathCalls.value(), 1u);
    EXPECT_EQ(kern.fastpathCalls.value(), 0u);
}

TEST(Sel4Paths, SlowPathCostsMoreThanFast)
{
    auto run = [](int server_prio) {
        hw::Machine machine(hw::rocketU500(), 128 << 20);
        kernel::Sel4Kernel kern(machine);
        kernel::Process &cp = kern.createProcess("c");
        kernel::Process &sp = kern.createProcess("s");
        kernel::Thread &ct = kern.createThread(cp, 0);
        kernel::Thread &st = kern.createThread(sp, 0);
        st.sched.priority = server_prio;
        uint64_t ep = kern.createPort(st, [](kernel::ServerCall &) {});
        kern.grantPort(ct, ep);
        VAddr req = cp.alloc(4096), reply = cp.alloc(4096);
        kernel::CallOutcome out;
        for (int i = 0; i < 4; i++) {
            out = kern.callPort(machine.core(0), ct, ep, 1, req, 8,
                                reply, 32);
        }
        return out.roundTrip.value();
    };
    EXPECT_GT(run(5), run(0) + 1000);
}

TEST(ZirconCrossCore, RemoteServerCostsIpisButWorks)
{
    hw::Machine machine(hw::lowRiscKc705(), 128 << 20);
    kernel::ZirconKernel kern(machine);
    kernel::Process &cp = kern.createProcess("c");
    kernel::Process &sp = kern.createProcess("s");
    kernel::Thread &ct = kern.createThread(cp, 0);
    kernel::Thread &st = kern.createThread(sp, 1); // other core
    uint64_t ch = kern.createPort(
        st, [](kernel::ServerCall &call) {
            uint8_t b;
            call.readRequest(0, &b, 1);
            b++;
            call.writeReply(0, &b, 1);
            call.setReplyLen(1);
        });
    VAddr req = cp.alloc(4096), reply = cp.alloc(4096);
    uint8_t v = 41;
    kern.userWrite(machine.core(0), cp, req, &v, 1);
    auto out = kern.callPort(machine.core(0), ct, ch, 0, req, 1, reply,
                             16);
    ASSERT_TRUE(out.ok);
    uint8_t got = 0;
    kern.userRead(machine.core(0), cp, reply, &got, 1);
    EXPECT_EQ(got, 42);
    // The server core did real work.
    EXPECT_GT(machine.core(1).now().value(), 0u);
}

TEST(ContextSwitch, CsrsFollowThreads)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    kernel::Thread &a = sys.spawn("a");
    kernel::Thread &b = sys.spawn("b");
    hw::Core &core = sys.core(0);

    // Give A an active segment, then switch to B and back: A's
    // seg-reg must survive the round trip through savedCsrs.
    core::RelaySegHandle seg =
        sys.runtime().allocRelayMem(core, a, 4096);
    EXPECT_EQ(core.csrs.segId, seg.segId);

    sys.runtime().ensureInstalled(core, b);
    EXPECT_NE(core.csrs.segId, seg.segId);
    EXPECT_EQ(core.csrs.linkReg, b.linkStack);

    sys.runtime().ensureInstalled(core, a);
    EXPECT_EQ(core.csrs.segId, seg.segId);
    EXPECT_EQ(core.csrs.linkReg, a.linkStack);
}

TEST(YcsbMix, RatiosRoughlyMatchTheSpec)
{
    // Drive YCSB against a MiniDb on a tiny rig and check the
    // operation mix matches the workload definitions.
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::RecordingTransport rec(sys.transport());
    kernel::Thread &dev_t = sys.spawn("dev");
    kernel::Thread &fs_t = sys.spawn("fs");
    kernel::Thread &cli = sys.spawn("cli");
    services::BlockDeviceServer dev(rec, dev_t, 4096);
    rec.connect(fs_t, dev.id());
    services::FsServer fsrv(rec, fs_t, dev.id(), 4096);
    rec.connect(cli, fsrv.id());
    apps::MiniDb db(rec, sys.core(0), cli, fsrv.id(), "mix.db", 256);

    apps::YcsbConfig cfg;
    cfg.records = 100;
    cfg.operations = 400;
    apps::Ycsb ycsb(cfg);
    ycsb.load(db, sys.core(0));

    auto a = ycsb.run(db, sys.core(0), apps::YcsbWorkload::A);
    EXPECT_NEAR(double(a.reads) / double(a.operations), 0.5, 0.08);
    auto b = ycsb.run(db, sys.core(0), apps::YcsbWorkload::B);
    EXPECT_NEAR(double(b.reads) / double(b.operations), 0.95, 0.05);
    auto e = ycsb.run(db, sys.core(0), apps::YcsbWorkload::E);
    EXPECT_NEAR(double(e.scans) / double(e.operations), 0.95, 0.05);
    EXPECT_EQ(e.reads, 0u);
}

TEST(Negotiation, HttpChainReservesWhatItAppends)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &cache_t = sys.spawn("cache");
    kernel::Thread &crypto_t = sys.spawn("crypto");
    kernel::Thread &http_t = sys.spawn("http");
    services::FileCacheServer cache(tr, cache_t);
    uint8_t key[16] = {};
    services::CryptoServer cryp(tr, crypto_t, key);
    services::HttpServer http(tr, http_t, cache.id(), cryp.id(), true,
                              4096);
    // S_all(http) >= its own header region (paper 4.4 negotiation).
    EXPECT_GE(tr.negotiatedAppend(http.id()),
              services::HttpServer::bodyOff);
}

TEST(Zipfian, SkewIncreasesHeadMass)
{
    auto head_mass = [](double theta) {
        Zipfian z(1000, theta, 5);
        uint64_t head = 0, n = 30000;
        for (uint64_t i = 0; i < n; i++)
            head += (z.next() < 20);
        return double(head) / double(n);
    };
    EXPECT_GT(head_mass(0.99), head_mass(0.5));
}

} // namespace
} // namespace xpc
