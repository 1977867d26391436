/**
 * @file
 * Tests for the relay page table (the paper's 6.2 extension):
 * non-contiguous relay memory behind a dual page table, with
 * kernel-mediated ownership transfer and ASID shootdown.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/system.hh"
#include "sim/random.hh"

namespace xpc::kernel {
namespace {

class RelayPtTest : public ::testing::Test
{
  protected:
    RelayPtTest()
    {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        sys = std::make_unique<core::System>(opts);
        alice = &sys->spawn("alice");
        bob = &sys->spawn("bob");
    }

    mem::AccessResult
    access(const mem::RelayPtWindow &w, VAddr va, void *buf,
           uint64_t len, bool write)
    {
        mem::TransContext ctx;
        ctx.relayPt = &w;
        ctx.pt = &alice->process()->space().pageTable();
        ctx.asid = alice->process()->space().asid();
        auto &ms = sys->machine().mem();
        return write ? ms.write(0, ctx, va, buf, len)
                     : ms.read(0, ctx, va, buf, len);
    }

    std::unique_ptr<core::System> sys;
    kernel::Thread *alice = nullptr;
    kernel::Thread *bob = nullptr;
};

TEST_F(RelayPtTest, BackingFramesAreScattered)
{
    // Fragment the allocator first so contiguity would be impossible.
    std::vector<PAddr> pins;
    std::vector<PAddr> holes;
    for (int i = 0; i < 64; i++) {
        holes.push_back(sys->machine().allocator().allocFrames(1));
        pins.push_back(sys->machine().allocator().allocFrames(1));
    }
    for (PAddr h : holes)
        sys->machine().allocator().freeFrames(h, 1);

    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            32 * pageSize);
    EXPECT_EQ(rpt.frames.size(), 32u);
    std::set<PAddr> uniq(rpt.frames.begin(), rpt.frames.end());
    EXPECT_EQ(uniq.size(), 32u);
    bool contiguous = true;
    for (size_t i = 1; i < rpt.frames.size(); i++) {
        if (rpt.frames[i] != rpt.frames[i - 1] + pageSize)
            contiguous = false;
    }
    EXPECT_FALSE(contiguous) << "fragmented allocator should have "
                                "produced scattered frames";
    for (PAddr p : pins)
        sys->machine().allocator().freeFrames(p, 1);
}

TEST_F(RelayPtTest, TranslatesAndRoundTripsData)
{
    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            8 * pageSize);
    mem::RelayPtWindow w = sys->manager().relayPtWindow(rpt.id);

    Rng rng(3);
    std::vector<uint8_t> data(3 * pageSize + 123);
    for (auto &b : data)
        b = uint8_t(rng.next());
    // Write across page boundaries (hits several scattered frames).
    ASSERT_TRUE(access(w, w.vaBase + 1000, data.data(), data.size(),
                       true).ok);
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(access(w, w.vaBase + 1000, out.data(), out.size(),
                       false).ok);
    EXPECT_EQ(out, data);
}

TEST_F(RelayPtTest, OutOfWindowFallsBackToProcessTable)
{
    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            2 * pageSize);
    mem::RelayPtWindow w = sys->manager().relayPtWindow(rpt.id);
    // An address past the window is translated by the normal table
    // and (being unmapped) page-faults.
    uint8_t b = 0;
    auto res = access(w, w.vaBase + w.len + pageSize, &b, 1, false);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.fault, mem::FaultKind::PageFault);
}

TEST_F(RelayPtTest, TranslationsAreTlbCachedUnderRelayAsid)
{
    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            4 * pageSize);
    mem::RelayPtWindow w = sys->manager().relayPtWindow(rpt.id);
    uint64_t v = 1;
    ASSERT_TRUE(access(w, w.vaBase, &v, 8, true).ok);
    uint64_t misses = sys->machine().mem().tlb(0).misses.value();
    ASSERT_TRUE(access(w, w.vaBase + 8, &v, 8, false).ok);
    EXPECT_EQ(sys->machine().mem().tlb(0).misses.value(), misses);
}

TEST_F(RelayPtTest, ReadOnlyPageFaultsOnEveryWrite)
{
    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            2 * pageSize);
    rpt.table->map(rpt.va, rpt.frames[0], mem::permsRO);
    mem::RelayPtWindow w = sys->manager().relayPtWindow(rpt.id);
    // The first write walks the relay table and the second finds
    // whatever the first left in the TLB: both must check the page's
    // permissions, as must a write that hits the entry a read filled.
    uint64_t v = 1;
    for (int i = 0; i < 2; i++) {
        auto res = access(w, w.vaBase, &v, 8, true);
        EXPECT_FALSE(res.ok) << "write " << i;
        EXPECT_EQ(res.fault, mem::FaultKind::ProtectionFault)
            << "write " << i;
    }
    ASSERT_TRUE(access(w, w.vaBase, &v, 8, false).ok);
    EXPECT_EQ(access(w, w.vaBase, &v, 8, true).fault,
              mem::FaultKind::ProtectionFault);
}

TEST_F(RelayPtTest, TransferUpdatesOwnerAndShootsDownTlb)
{
    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            4 * pageSize);
    mem::RelayPtWindow w = sys->manager().relayPtWindow(rpt.id);
    uint64_t v = 7;
    ASSERT_TRUE(access(w, w.vaBase, &v, 8, true).ok);

    uint64_t flushes = sys->machine().mem().tlb(0).flushes.value();
    sys->manager().transferRelayPt(&sys->core(0), rpt.id,
                                   *bob->process());
    EXPECT_EQ(sys->manager().relayPtById(rpt.id)->owner,
              bob->process()->id());
    // The relay ASID was flushed (flushAsid counts as a flush).
    EXPECT_GT(sys->machine().mem().tlb(0).flushes.value(), flushes);
    // Data survives the transfer.
    uint64_t out = 0;
    ASSERT_TRUE(access(w, w.vaBase, &out, 8, false).ok);
    EXPECT_EQ(out, 7u);
}

TEST_F(RelayPtTest, TransferCostsGrowWithSizeUnlikeRelaySeg)
{
    // The 6.2 trade: handing over a relay-seg is O(1) (one register),
    // transferring a relay-pt is O(pages) + shootdown.
    auto cost = [&](uint64_t pages) {
        auto &rpt = sys->manager().allocRelayPt(
            nullptr, *alice->process(), pages * pageSize);
        hw::Core &core = sys->core(0);
        Cycles t0 = core.now();
        sys->manager().transferRelayPt(&core, rpt.id,
                                       *bob->process());
        return (core.now() - t0).value();
    };
    uint64_t small = cost(4);
    uint64_t large = cost(64);
    EXPECT_GT(large, small + 60 * 2);
}

TEST_F(RelayPtTest, OwnerExitFreesFramesAndFlushes)
{
    uint64_t before = sys->machine().allocator().freeBytes();
    auto &rpt = sys->manager().allocRelayPt(nullptr,
                                            *alice->process(),
                                            16 * pageSize);
    uint64_t id = rpt.id;
    EXPECT_LT(sys->machine().allocator().freeBytes(), before);
    sys->manager().onProcessExit(*alice->process());
    EXPECT_EQ(sys->manager().relayPtById(id), nullptr);
    // Frames returned (the dual table's node frames persist with the
    // table object, so compare against the post-table baseline).
    EXPECT_GT(sys->machine().allocator().freeBytes(),
              before - 20 * pageSize);
}

} // namespace
} // namespace xpc::kernel
