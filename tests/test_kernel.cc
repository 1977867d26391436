/**
 * @file
 * Unit tests for the kernel layer: address spaces, processes, the
 * seL4 and Zircon IPC paths, and the XPC control plane.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernel/sel4.hh"
#include "kernel/xpc_manager.hh"
#include "kernel/zircon.hh"
#include "sim/logging.hh"

namespace xpc::kernel {
namespace {

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest()
        : machine(hw::rocketU500(), 128 << 20), kern(machine)
    {}

    hw::Machine machine;
    Sel4Kernel kern;
};

TEST_F(KernelTest, ProcessAllocatesUsableMemory)
{
    Process &p = kern.createProcess("test");
    VAddr va = p.alloc(3 * pageSize);
    uint64_t v = 0x1234;
    ASSERT_TRUE(kern.userWrite(machine.core(0), p, va + 100, &v,
                               8).ok);
    uint64_t out = 0;
    ASSERT_TRUE(kern.userRead(machine.core(0), p, va + 100, &out,
                              8).ok);
    EXPECT_EQ(out, v);
}

TEST_F(KernelTest, AddressSpacesAreIsolated)
{
    Process &a = kern.createProcess("a");
    Process &b = kern.createProcess("b");
    VAddr va = a.alloc(pageSize);
    uint64_t v = 42;
    kern.userWrite(machine.core(0), a, va, &v, 8);
    uint64_t out = 0;
    // The same VA in b is unmapped (or different memory).
    auto res = kern.userRead(machine.core(0), b, va, &out, 8);
    EXPECT_TRUE(!res.ok || out != v);
}

TEST_F(KernelTest, AllocMapRejectsOverlapWithSegReservation)
{
    Process &p = kern.createProcess("p");
    VAddr seg = p.space().reserveSegRange(4 * pageSize);
    VAddr heap = p.alloc(64 * pageSize);
    EXPECT_TRUE(heap + 64 * pageSize <= seg ||
                heap >= seg + 4 * pageSize);
}

TEST_F(KernelTest, FreeMapReturnsFrames)
{
    Process &p = kern.createProcess("p");
    // First cycle allocates page-table nodes, which the table keeps.
    p.space().freeMap(p.alloc(16 * pageSize));
    uint64_t before = machine.allocator().freeBytes();
    VAddr va = p.alloc(16 * pageSize);
    EXPECT_LT(machine.allocator().freeBytes(), before);
    p.space().freeMap(va);
    EXPECT_EQ(machine.allocator().freeBytes(), before);
}

TEST_F(KernelTest, ContextSwitchChargesAndSwitches)
{
    Process &a = kern.createProcess("a");
    Process &b = kern.createProcess("b");
    Thread &ta = kern.createThread(a, 0);
    Thread &tb = kern.createThread(b, 0);
    hw::Core &c = machine.core(0);
    kern.setCurrent(0, &ta);
    Cycles t0 = c.now();
    kern.contextSwitchTo(c, tb);
    EXPECT_GT(c.now(), t0);
    EXPECT_EQ(kern.current(0), &tb);
    EXPECT_EQ(c.csrs.pageTableRoot, b.space().root());
}

class Sel4IpcTest : public ::testing::Test
{
  protected:
    Sel4IpcTest()
        : machine(hw::rocketU500(), 128 << 20), kern(machine),
          client_proc(kern.createProcess("client")),
          server_proc(kern.createProcess("server")),
          client(kern.createThread(client_proc, 0)),
          server(kern.createThread(server_proc, 0))
    {
        kern.setCurrent(0, &client);
        // Echo server: reply = request bytes, reversed in place is
        // too slow for big tests; plain echo suffices.
        ep = kern.createEndpoint(server, [](Sel4ServerCall &call) {
            std::vector<uint8_t> buf(call.requestLen());
            call.readRequest(0, buf.data(), buf.size());
            for (auto &b : buf)
                b ^= 0xff;
            call.writeReply(0, buf.data(), buf.size());
        });
        kern.grantEndpointCap(client, ep);
        req = client_proc.alloc(64 * 1024);
        reply = client_proc.alloc(64 * 1024);
    }

    CallOutcome
    doCall(uint64_t len, LongMsgMode mode = LongMsgMode::TwoCopy)
    {
        std::vector<uint8_t> data(len);
        for (uint64_t i = 0; i < len; i++)
            data[i] = uint8_t(i * 13 + 7);
        if (len > 0) {
            kern.userWrite(machine.core(0), client_proc, req,
                           data.data(), len);
        }
        auto out = kern.call(machine.core(0), client, ep, 1, req, len,
                             reply, 64 * 1024, mode);
        if (out.ok && len > 0) {
            std::vector<uint8_t> got(len);
            kern.userRead(machine.core(0), client_proc, reply,
                          got.data(), len);
            for (uint64_t i = 0; i < len; i++) {
                EXPECT_EQ(got[i], uint8_t(data[i] ^ 0xff))
                    << "byte " << i << " len " << len;
            }
        }
        return out;
    }

    hw::Machine machine;
    Sel4Kernel kern;
    Process &client_proc;
    Process &server_proc;
    Thread &client;
    Thread &server;
    uint64_t ep = 0;
    VAddr req = 0, reply = 0;
};

TEST_F(Sel4IpcTest, RegisterMessageRoundTrips)
{
    auto out = doCall(16);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.replyLen, 16u);
    EXPECT_EQ(kern.fastpathCalls.value(), 1u);
}

TEST_F(Sel4IpcTest, MediumMessageTakesSlowPath)
{
    auto out = doCall(64);
    EXPECT_TRUE(out.ok);
    EXPECT_GE(kern.slowpathCalls.value(), 1u);
}

TEST_F(Sel4IpcTest, LargeMessagesRoundTripBothModes)
{
    EXPECT_TRUE(doCall(4096, LongMsgMode::TwoCopy).ok);
    EXPECT_TRUE(doCall(4096, LongMsgMode::OneCopy).ok);
    EXPECT_TRUE(doCall(32768, LongMsgMode::TwoCopy).ok);
}

TEST_F(Sel4IpcTest, TwoCopyCostsMoreThanOneCopy)
{
    doCall(16384, LongMsgMode::TwoCopy); // warm everything
    auto two = doCall(16384, LongMsgMode::TwoCopy);
    auto one = doCall(16384, LongMsgMode::OneCopy);
    EXPECT_GT(two.roundTrip.value(), one.roundTrip.value());
}

TEST_F(Sel4IpcTest, FastPathBreakdownNearPaperTable1)
{
    // Warm caches with a few calls first, as the paper's fast-path
    // numbers are warm-path numbers.
    for (int i = 0; i < 8; i++)
        doCall(0);
    auto out = doCall(0);
    ASSERT_TRUE(out.ok);
    const Sel4Phases &ph = kern.lastPhases;
    // Paper Table 1 (0B): trap 107, logic 212, switch 146,
    // restore 199, sum 664. Accept a +-35% band.
    EXPECT_NEAR(double(ph.trap.value()), 107, 38);
    EXPECT_NEAR(double(ph.logic.value()), 212, 75);
    EXPECT_NEAR(double(ph.processSwitch.value()), 146, 52);
    EXPECT_NEAR(double(ph.restore.value()), 199, 70);
    EXPECT_NEAR(double(ph.sum().value()), 664, 180);
}

TEST_F(Sel4IpcTest, LargeTransferDominatesAt4K)
{
    for (int i = 0; i < 4; i++)
        doCall(4096);
    doCall(4096);
    const Sel4Phases &ph = kern.lastPhases;
    // Paper Table 1 (4KB): transfer 4010 of 4804 total. Shapes:
    // transfer dominates and the sum is in the thousands.
    EXPECT_GT(ph.transfer.value(), ph.sum().value() / 2);
    EXPECT_GT(ph.sum().value(), 2500u);
}

TEST_F(Sel4IpcTest, CrossCoreCostsMuchMore)
{
    Thread &remote_server = kern.createThread(server_proc, 1);
    uint64_t ep2 = kern.createEndpoint(remote_server,
                                       [](Sel4ServerCall &) {});
    kern.grantEndpointCap(client, ep2);
    auto same = doCall(0);
    auto cross = kern.call(machine.core(0), client, ep2, 1, req, 0,
                           reply, 1024);
    EXPECT_TRUE(cross.ok);
    EXPECT_GT(cross.roundTrip.value(), same.roundTrip.value() * 4);
    EXPECT_EQ(kern.crossCoreCalls.value(), 1u);
}

TEST_F(Sel4IpcTest, CallWithoutCapFails)
{
    xpc::setLogQuiet(true);
    Thread &other = kern.createThread(client_proc, 0);
    auto out = kern.call(machine.core(0), other, ep, 1, req, 0, reply,
                         1024);
    xpc::setLogQuiet(false);
    EXPECT_FALSE(out.ok);
}

class ZirconIpcTest : public ::testing::Test
{
  protected:
    ZirconIpcTest()
        : machine(hw::lowRiscKc705(), 128 << 20), kern(machine),
          client_proc(kern.createProcess("client")),
          server_proc(kern.createProcess("server")),
          client(kern.createThread(client_proc, 0)),
          server(kern.createThread(server_proc, 0))
    {
        kern.setCurrent(0, &client);
        ch = kern.createChannel(server, [](ZirconServerCall &call) {
            std::vector<uint8_t> buf(call.requestLen());
            call.readRequest(0, buf.data(), buf.size());
            for (auto &b : buf)
                b = uint8_t(b + 1);
            call.writeReply(0, buf.data(), buf.size());
        });
        req = client_proc.alloc(64 * 1024);
        reply = client_proc.alloc(64 * 1024);
    }

    hw::Machine machine;
    ZirconKernel kern;
    Process &client_proc;
    Process &server_proc;
    Thread &client;
    Thread &server;
    uint64_t ch = 0;
    VAddr req = 0, reply = 0;
};

TEST_F(ZirconIpcTest, ChannelRoundTripsData)
{
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i);
    kern.userWrite(machine.core(0), client_proc, req, data.data(),
                   data.size());
    auto out = kern.call(machine.core(0), client, ch, 7, req,
                         data.size(), reply, 64 * 1024);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.replyLen, data.size());
    std::vector<uint8_t> got(data.size());
    kern.userRead(machine.core(0), client_proc, reply, got.data(),
                  got.size());
    for (size_t i = 0; i < data.size(); i++)
        EXPECT_EQ(got[i], uint8_t(data[i] + 1));
}

TEST_F(ZirconIpcTest, RoundTripIsTensOfThousandsOfCycles)
{
    auto out = kern.call(machine.core(0), client, ch, 7, req, 64,
                         reply, 1024);
    ASSERT_TRUE(out.ok);
    EXPECT_GT(out.roundTrip.value(), 8000u);
    EXPECT_LT(out.roundTrip.value(), 80000u);
}

TEST_F(ZirconIpcTest, ZirconIsSlowerThanSel4FastPath)
{
    Sel4Kernel sel4(machine);
    Process &cp = sel4.createProcess("c");
    Process &sp = sel4.createProcess("s");
    Thread &ct = sel4.createThread(cp, 0);
    Thread &st = sel4.createThread(sp, 0);
    uint64_t ep = sel4.createEndpoint(st, [](Sel4ServerCall &) {});
    sel4.grantEndpointCap(ct, ep);
    VAddr r2 = cp.alloc(4096), rp2 = cp.alloc(4096);
    auto s = sel4.call(machine.core(0), ct, ep, 1, r2, 16, rp2, 64);
    auto z = kern.call(machine.core(0), client, ch, 7, req, 16, reply,
                       64);
    EXPECT_GT(z.roundTrip.value(), s.roundTrip.value() * 5);
}

class XpcManagerTest : public ::testing::Test
{
  protected:
    XpcManagerTest()
        : machine(hw::rocketU500(), 128 << 20), kern(machine),
          eng(machine, {}), mgr(kern, eng),
          server_proc(kern.createProcess("server")),
          client_proc(kern.createProcess("client")),
          server(kern.createThread(server_proc, 0)),
          client(kern.createThread(client_proc, 0))
    {
        mgr.initThread(server);
        mgr.initThread(client);
    }

    hw::Machine machine;
    Sel4Kernel kern;
    engine::XpcEngine eng;
    XpcManager mgr;
    Process &server_proc;
    Process &client_proc;
    Thread &server;
    Thread &client;
};

TEST_F(XpcManagerTest, RegisterEntryGrantsCreatorGrantCap)
{
    uint64_t id = mgr.registerEntry(server, server, 0x1000, 4);
    EXPECT_TRUE(mgr.hasGrantCap(server, id));
    EXPECT_FALSE(mgr.hasGrantCap(client, id));
    EXPECT_FALSE(mgr.hasXcallCap(client, id));
}

TEST_F(XpcManagerTest, GrantXcallCapSetsBitmapBit)
{
    uint64_t id = mgr.registerEntry(server, server, 0x1000, 4);
    mgr.grantXcallCap(server, client, id);
    EXPECT_TRUE(mgr.hasXcallCap(client, id));
    mgr.revokeXcallCap(client, id);
    EXPECT_FALSE(mgr.hasXcallCap(client, id));
}

TEST_F(XpcManagerTest, GrantWithoutGrantCapPanics)
{
    uint64_t id = mgr.registerEntry(server, server, 0x1000, 4);
    EXPECT_DEATH(mgr.grantXcallCap(client, client, id), "grant-cap");
}

TEST_F(XpcManagerTest, GrantCapCanBeForwarded)
{
    uint64_t id = mgr.registerEntry(server, server, 0x1000, 4);
    mgr.grantGrantCap(server, client, id);
    EXPECT_TRUE(mgr.hasGrantCap(client, id));
    // Now the client can grant to others.
    Thread &third = kern.createThread(client_proc, 0);
    mgr.initThread(third);
    mgr.grantXcallCap(client, third, id);
    EXPECT_TRUE(mgr.hasXcallCap(third, id));
}

TEST_F(XpcManagerTest, RelaySegIsContiguousAndDisjoint)
{
    RelaySeg seg = mgr.allocRelaySeg(nullptr, client_proc, 16384, 0);
    EXPECT_EQ(seg.len, 16384u);
    EXPECT_NE(seg.pa, 0u);
    // Never overlaps any page-table mapping of the process.
    EXPECT_FALSE(client_proc.space().pageTable().anyMappingIn(seg.va,
                                                              seg.len));
    // Installed in the seg-list.
    auto entry = engine::XpcEngine::readSegListEntry(
        machine.phys(), client_proc.space().segList(), 0);
    EXPECT_TRUE(entry.valid);
    EXPECT_EQ(entry.window.paBase, seg.pa);
    EXPECT_EQ(entry.segId, seg.segId);
}

TEST_F(XpcManagerTest, HeapNeverGrowsIntoSegRange)
{
    RelaySeg seg = mgr.allocRelaySeg(nullptr, client_proc, 65536, 0);
    for (int i = 0; i < 50; i++) {
        VAddr heap = client_proc.alloc(16 * pageSize);
        EXPECT_TRUE(heap + 16 * pageSize <= seg.va ||
                    heap >= seg.va + seg.len);
    }
}

TEST_F(XpcManagerTest, FreeRelaySegReturnsMemory)
{
    uint64_t before = machine.allocator().freeBytes();
    RelaySeg seg = mgr.allocRelaySeg(nullptr, client_proc, 16384, 0);
    mgr.freeRelaySeg(client_proc, seg.segId);
    EXPECT_EQ(machine.allocator().freeBytes(), before);
    EXPECT_FALSE(mgr.segById(seg.segId).has_value());
}

TEST_F(XpcManagerTest, ProcessExitInvalidatesItsLinkageRecords)
{
    // Push a record claiming client_proc as the caller onto the
    // server thread's link stack (as if client called server).
    engine::LinkageRecord rec;
    rec.valid = true;
    rec.callerPageTable = client_proc.space().root();
    engine::XpcEngine::writeLinkageRecord(machine.phys(),
                                          server.linkStack, 0, rec);
    mgr.onProcessExit(client_proc);
    auto got = engine::XpcEngine::readLinkageRecord(
        machine.phys(), server.linkStack, 0);
    EXPECT_FALSE(got.valid);
    EXPECT_TRUE(client_proc.dead);
}

TEST_F(XpcManagerTest, ProcessExitRemovesItsEntriesAndSegs)
{
    uint64_t id = mgr.registerEntry(server, server, 0x1000, 4);
    RelaySeg seg = mgr.allocRelaySeg(nullptr, server_proc, 8192, 0);
    mgr.onProcessExit(server_proc);
    EXPECT_FALSE(mgr.entryInfo(id).live);
    EXPECT_FALSE(mgr.segById(seg.segId).has_value());
    // The x-entry in the table is invalid now.
    auto e = engine::XpcEngine::readXEntry(machine.phys(),
                                           mgr.xEntryTable(), id);
    EXPECT_FALSE(e.valid);
}

} // namespace
} // namespace xpc::kernel
