/**
 * @file
 * Unit and property tests for the memory subsystem: physical memory,
 * the frame allocator, page tables, TLB, caches and MemSystem.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"

namespace xpc::mem {
namespace {

TEST(PhysMemTest, ReadBackWhatWasWritten)
{
    PhysMem pm(1 << 20);
    uint8_t data[256];
    for (int i = 0; i < 256; i++)
        data[i] = uint8_t(i);
    pm.write(0x1234, data, sizeof(data));
    uint8_t out[256] = {};
    pm.read(0x1234, out, sizeof(out));
    EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
}

TEST(PhysMemTest, CrossPageAccess)
{
    PhysMem pm(1 << 20);
    std::vector<uint8_t> data(3 * pageSize, 0xab);
    pm.write(pageSize - 100, data.data(), data.size());
    std::vector<uint8_t> out(data.size());
    pm.read(pageSize - 100, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(PhysMemTest, Word64Helpers)
{
    PhysMem pm(1 << 20);
    pm.write64(0x100, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(pm.read64(0x100), 0xdeadbeefcafef00dULL);
}

TEST(PhysMemTest, ZeroInitialized)
{
    PhysMem pm(1 << 20);
    EXPECT_EQ(pm.read64(0x8000), 0u);
}

TEST(PhysMemTest, LastWordOfDram)
{
    PhysMem pm(1 << 20);
    PAddr last = pm.size() - 8;
    EXPECT_EQ(pm.read64(last), 0u);
    pm.write64(last, 0x0123456789abcdefULL);
    EXPECT_EQ(pm.read64(last), 0x0123456789abcdefULL);
    uint64_t via_read = 0;
    pm.read(last, &via_read, sizeof(via_read));
    EXPECT_EQ(via_read, 0x0123456789abcdefULL);
    pm.clear(last, 8);
    EXPECT_EQ(pm.read64(last), 0u);
}

TEST(PhysMemTest, NeverWrittenMemoryReadsZerosAndHoldsNoFrame)
{
    PhysMem pm(1 << 20);
    std::vector<uint8_t> out(2 * pageSize + 64, 0xee);
    pm.read(pageSize - 32, out.data(), out.size());
    EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));
    EXPECT_EQ(pm.read64(3 * pageSize + 8), 0u);
    pm.clear(4 * pageSize, 3 * pageSize);
    EXPECT_EQ(pm.residentFrames(), 0u);
}

TEST(PhysMemTest, FirstWriteIntoAFrameAllocatesIt)
{
    PhysMem pm(1 << 20);
    EXPECT_EQ(pm.read64(0x5008), 0u);
    uint8_t b = 7;
    pm.write(0x2010, &b, 1);
    EXPECT_EQ(pm.residentFrames(), 1u);
    pm.write(0x2ff0, &b, 1);
    EXPECT_EQ(pm.residentFrames(), 1u);
    // A frame read before is allocated by its first write all the same.
    pm.write64(0x5008, 1);
    EXPECT_EQ(pm.residentFrames(), 2u);
    EXPECT_EQ(pm.read64(0x5008), 1u);
}

TEST(PhysMemTest, ClearOfAWrittenFrameZeroesExactlyThatPart)
{
    PhysMem pm(1 << 20);
    std::vector<uint8_t> page(pageSize, 0xab);
    pm.write(pageSize, page.data(), page.size());
    // The range runs on into the next frame, which was never written.
    pm.clear(pageSize + 100, pageSize);
    std::vector<uint8_t> out(pageSize);
    pm.read(pageSize, out.data(), out.size());
    for (uint64_t i = 0; i < pageSize; i++)
        ASSERT_EQ(out[i], i < 100 ? 0xab : 0) << "byte " << i;
    EXPECT_EQ(pm.residentFrames(), 1u);

    pm.write(pageSize, page.data(), page.size());
    pm.clear(pageSize + 100, 200);
    pm.read(pageSize, out.data(), out.size());
    for (uint64_t i = 0; i < pageSize; i++)
        ASSERT_EQ(out[i], i >= 100 && i < 300 ? 0 : 0xab) << "byte " << i;
}

TEST(PhysMemDeathTest, OutOfRangePanics)
{
    PhysMem pm(1 << 20);
    uint8_t b;
    EXPECT_DEATH(pm.read((1 << 20) - 1, &b, 2), "outside DRAM");
}

TEST(PhysMemDeathTest, WordAccessAtOrPastEndPanics)
{
    // With a flat frame table a missed range check would index past
    // its end, so every entry point must refuse first.
    PhysMem pm(1 << 20);
    const PAddr end = pm.size();
    EXPECT_DEATH(pm.read64(end), "outside DRAM");
    EXPECT_DEATH(pm.read64(end + pageSize), "outside DRAM");
    EXPECT_DEATH(pm.write64(end, 1), "outside DRAM");
    EXPECT_DEATH(pm.write64(end + 8 * pageSize, 1), "outside DRAM");
    // A word whose end wraps the address space is out of range too.
    EXPECT_DEATH(pm.read64(~uint64_t(7)), "outside DRAM");
    EXPECT_DEATH(pm.write64(~uint64_t(7), 1), "outside DRAM");
}

TEST(PhysMemDeathTest, ClearAtOrPastEndPanics)
{
    PhysMem pm(1 << 20);
    const PAddr end = pm.size();
    EXPECT_DEATH(pm.clear(end, 1), "outside DRAM");
    EXPECT_DEATH(pm.clear(end - 4, 8), "outside DRAM");
    EXPECT_DEATH(pm.clear(end + pageSize, pageSize), "outside DRAM");
}

TEST(PhysAllocatorTest, AllocateAndFreeCoalesces)
{
    PhysAllocator alloc(0x10000, 64 * pageSize);
    uint64_t total = alloc.freeBytes();
    PAddr a = alloc.allocFrames(4);
    PAddr b = alloc.allocFrames(4);
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    EXPECT_NE(a, b);
    alloc.freeFrames(a, 4);
    alloc.freeFrames(b, 4);
    EXPECT_EQ(alloc.freeBytes(), total);
    EXPECT_EQ(alloc.largestExtent(), total);
}

TEST(PhysAllocatorTest, ContiguousAllocationRespectsFragmentation)
{
    PhysAllocator alloc(0x10000, 8 * pageSize);
    PAddr a = alloc.allocFrames(3);
    PAddr b = alloc.allocFrames(3);
    (void)b;
    alloc.freeFrames(a, 3);
    // 3 free at the front, 2 free at the back: a 4-frame contiguous
    // request cannot be satisfied.
    EXPECT_EQ(alloc.allocFrames(4), 0u);
    EXPECT_NE(alloc.allocFrames(3), 0u);
}

TEST(PhysAllocatorDeathTest, DoubleFreePanics)
{
    PhysAllocator alloc(0x10000, 8 * pageSize);
    PAddr a = alloc.allocFrames(1);
    alloc.freeFrames(a, 1);
    EXPECT_DEATH(alloc.freeFrames(a, 1), "double free");
}

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest()
        : pm(64 << 20), alloc(0x10000, (64 << 20) - 0x10000),
          pt(pm, alloc)
    {}

    PhysMem pm;
    PhysAllocator alloc;
    PageTable pt;
};

TEST_F(PageTableTest, MapThenWalk)
{
    pt.map(0x4000, 0x20000, permsRW);
    WalkResult r = pt.walk(0x4abc);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.paddr, 0x20abcu);
    EXPECT_TRUE(r.perms.read);
    EXPECT_TRUE(r.perms.write);
    EXPECT_FALSE(r.perms.exec);
    EXPECT_EQ(r.levels, 3);
}

TEST_F(PageTableTest, UnmappedWalkFails)
{
    EXPECT_FALSE(pt.walk(0x4000).valid);
}

TEST_F(PageTableTest, UnmapRemovesTranslation)
{
    pt.map(0x4000, 0x20000, permsRW);
    EXPECT_TRUE(pt.unmap(0x4000));
    EXPECT_FALSE(pt.walk(0x4000).valid);
    EXPECT_FALSE(pt.unmap(0x4000));
}

TEST_F(PageTableTest, RemapInPlace)
{
    pt.map(0x4000, 0x20000, permsRW);
    pt.map(0x4000, 0x30000, permsRO);
    WalkResult r = pt.walk(0x4000);
    ASSERT_TRUE(r.valid);
    EXPECT_EQ(r.paddr, 0x30000u);
    EXPECT_FALSE(r.perms.write);
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST_F(PageTableTest, SparseAddressesUseDistinctSubtrees)
{
    pt.map(0x4000, 0x20000, permsRW);
    pt.map(uint64_t(5) << 30, 0x21000, permsRW);
    pt.map((uint64_t(1) << 38) | 0x7000, 0x22000, permsRW);
    EXPECT_EQ(pt.walk(0x4000).paddr, 0x20000u);
    EXPECT_EQ(pt.walk(uint64_t(5) << 30).paddr, 0x21000u);
    EXPECT_EQ(pt.walk((uint64_t(1) << 38) | 0x7000).paddr, 0x22000u);
}

TEST_F(PageTableTest, AnyMappingIn)
{
    pt.map(0x4000, 0x20000, permsRW);
    EXPECT_TRUE(pt.anyMappingIn(0x3fff, 2));
    EXPECT_TRUE(pt.anyMappingIn(0x4800, 8));
    EXPECT_FALSE(pt.anyMappingIn(0x6000, 0x1000));
}

TEST_F(PageTableTest, ZapRootInvalidatesEverything)
{
    pt.map(0x4000, 0x20000, permsRW);
    pt.zapRoot();
    EXPECT_FALSE(pt.walk(0x4000).valid);
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST_F(PageTableTest, BeyondSv39Invalid)
{
    EXPECT_FALSE(pt.walk(uint64_t(1) << 39).valid);
}

/** Property: walk(va) equals the map we constructed, for many pages. */
TEST_F(PageTableTest, PropertyRandomMappingsResolve)
{
    Rng rng(123);
    std::map<VAddr, PAddr> truth;
    for (int i = 0; i < 300; i++) {
        VAddr va = pageAlignDown(rng.next() & ((uint64_t(1) << 39) - 1));
        PAddr pa = pageAlignDown(rng.nextBounded(32 << 20));
        pt.map(va, pa, permsRW);
        truth[va] = pa;
    }
    for (const auto &[va, pa] : truth) {
        WalkResult r = pt.walk(va);
        ASSERT_TRUE(r.valid);
        EXPECT_EQ(r.paddr, pa);
    }
}

TEST(TlbTest, HitAfterInsert)
{
    Tlb tlb(64, 4, true);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    const TlbEntry *e = tlb.lookup(1, 0x4abc);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ppn, 0x20000u >> pageShift);
    EXPECT_EQ(tlb.hits.value(), 1u);
}

TEST(TlbTest, TaggedSeparatesAsids)
{
    Tlb tlb(64, 4, true);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    EXPECT_EQ(tlb.lookup(2, 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(1, 0x4000), nullptr);
}

TEST(TlbTest, UntaggedStillMatchesAsidFunctionally)
{
    // "Untagged" is a timing property (must flush on space switch);
    // the functional model never lets one space hit another's entry.
    Tlb tlb(64, 4, false);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    EXPECT_EQ(tlb.lookup(2, 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(1, 0x4000), nullptr);
}

TEST(TlbTest, FlushAllDropsEntries)
{
    Tlb tlb(64, 4, false);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(1, 0x4000), nullptr);
}

TEST(TlbTest, FlushAsidIsSelective)
{
    Tlb tlb(64, 4, true);
    tlb.insert(1, 0x4000, 0x20000, permsRW);
    tlb.insert(2, 0x5000, 0x21000, permsRW);
    tlb.flushAsid(1);
    EXPECT_EQ(tlb.lookup(1, 0x4000), nullptr);
    EXPECT_NE(tlb.lookup(2, 0x5000), nullptr);
}

TEST(TlbTest, LruEvictionWithinSet)
{
    // 4 entries, 2 ways -> 2 sets. VPNs with the same parity share a
    // set; the least recently used way is evicted.
    Tlb tlb(4, 2, true);
    tlb.insert(1, 0x0000, 0x10000, permsRW); // set 0
    tlb.insert(1, 0x2000, 0x20000, permsRW); // set 0
    tlb.lookup(1, 0x0000);                   // touch first
    tlb.insert(1, 0x4000, 0x30000, permsRW); // evicts 0x2000
    EXPECT_NE(tlb.lookup(1, 0x0000), nullptr);
    EXPECT_EQ(tlb.lookup(1, 0x2000), nullptr);
}

TEST(TlbDeathTest, ZeroWaysPanicsBeforeSizing)
{
    // The set count divides by the ways, so the check must come first.
    EXPECT_DEATH(Tlb(128, 0, false), "bad TLB geometry");
}

TEST(CacheDeathTest, GeometryWithNoSetsPanics)
{
    // Smaller than one line: no sets, so the first access would index
    // an empty way array.
    EXPECT_DEATH(Cache({32, 64, 4, Cycles(2)}, nullptr, Cycles(50)),
                 "bad cache geometry");
}

TEST(CacheDeathTest, NextLevelWithOtherLineSizePanics)
{
    // A miss probes the next level by line number, so both levels
    // must agree on what a line is.
    Cache l2({4096, 128, 4, Cycles(14)}, nullptr, Cycles(60));
    EXPECT_DEATH(Cache({1024, 64, 2, Cycles(2)}, &l2, Cycles(60)),
                 "next cache level has 128-byte lines");
}

TEST(CacheTest, MissThenHit)
{
    Cache l1({1024, 64, 2, Cycles(2)}, nullptr, Cycles(50));
    Cycles cold = l1.access(0x1000, 8, false);
    Cycles warm = l1.access(0x1000, 8, false);
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, Cycles(2));
    EXPECT_EQ(l1.misses.value(), 1u);
    EXPECT_EQ(l1.hits.value(), 1u);
}

TEST(CacheTest, DirtyEvictionWritesBack)
{
    // Direct-mapped 2-line cache: lines 0x0 and 0x40 conflict with
    // 0x80 and 0xc0 respectively.
    Cache l1({128, 64, 1, Cycles(2)}, nullptr, Cycles(50));
    l1.access(0x0, 8, true);   // dirty line
    l1.access(0x80, 8, false); // evicts dirty line 0x0
    EXPECT_EQ(l1.writebacks.value(), 1u);
}

TEST(CacheTest, HierarchyChargesThroughLevels)
{
    Cache l2({4096, 64, 4, Cycles(14)}, nullptr, Cycles(60));
    Cache l1({1024, 64, 2, Cycles(2)}, &l2, Cycles(60));
    Cycles cold = l1.access(0x2000, 8, false);
    // cold: L1 miss -> L2 miss -> DRAM: 2 + 14 + 60
    EXPECT_EQ(cold, Cycles(76));
    l1.invalidateAll();
    Cycles l2hit = l1.access(0x2000, 8, false);
    EXPECT_EQ(l2hit, Cycles(16));
}

TEST(CacheTest, MultiLineAccessTouchesEachLine)
{
    Cache l1({4096, 64, 2, Cycles(2)}, nullptr, Cycles(50));
    l1.access(0x1000, 256, false);
    EXPECT_EQ(l1.misses.value(), 4u);
}

class MemSystemTest : public ::testing::Test
{
  protected:
    MemSystemTest()
        : pm(64 << 20), alloc(0x10000, (64 << 20) - 0x10000)
    {
        MemParams p;
        p.l1d = {32 * 1024, 64, 4, Cycles(2)};
        p.l2 = {1024 * 1024, 64, 16, Cycles(14)};
        p.dramLatency = Cycles(60);
        p.tlbEntries = 64;
        p.tlbAssoc = 4;
        p.taggedTlb = false;
        p.walkOverhead = Cycles(4);
        p.perWordIssue = Cycles(1);
        ms = std::make_unique<MemSystem>(pm, p, 2, requests, tracer);
        pt = std::make_unique<PageTable>(pm, alloc);
        pt->map(0x4000, alloc.allocFrames(1), permsRW);
    }

    TransContext
    ctx()
    {
        TransContext c;
        c.pt = pt.get();
        c.asid = 1;
        c.user = true;
        return c;
    }

    req::RequestContext requests;
    trace::Tracer tracer{requests};
    PhysMem pm;
    PhysAllocator alloc;
    std::unique_ptr<MemSystem> ms;
    std::unique_ptr<PageTable> pt;
};

TEST_F(MemSystemTest, WriteThenReadRoundTrips)
{
    uint64_t v = 0x1122334455667788ULL;
    auto w = ms->write(0, ctx(), 0x4010, &v, 8);
    ASSERT_TRUE(w.ok);
    uint64_t out = 0;
    auto r = ms->read(0, ctx(), 0x4010, &out, 8);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(out, v);
}

TEST_F(MemSystemTest, UnmappedAccessPageFaults)
{
    uint8_t b = 0;
    auto r = ms->read(0, ctx(), 0x9000, &b, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::PageFault);
    EXPECT_EQ(r.faultAddr, 0x9000u);
}

TEST_F(MemSystemTest, WriteToReadOnlyPageProtectionFaults)
{
    pt->map(0x5000, alloc.allocFrames(1), permsRO);
    uint8_t b = 1;
    auto r = ms->write(0, ctx(), 0x5000, &b, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::ProtectionFault);
}

TEST_F(MemSystemTest, TlbWarmsUp)
{
    uint8_t b;
    ms->read(0, ctx(), 0x4000, &b, 1);
    uint64_t misses = ms->tlb(0).misses.value();
    ms->read(0, ctx(), 0x4001, &b, 1);
    EXPECT_EQ(ms->tlb(0).misses.value(), misses);
}

TEST_F(MemSystemTest, SegWindowHasPriorityOverPageTable)
{
    PAddr frames = alloc.allocFrames(2);
    SegWindow seg{true, 0x4000, frames, 2 * pageSize, true, true};
    TransContext c = ctx();
    c.seg = &seg;
    uint64_t v = 0xabcd;
    ASSERT_TRUE(ms->write(0, c, 0x4000, &v, 8).ok);
    // The write landed in the segment frames, not the mapped page.
    EXPECT_EQ(pm.read64(frames), 0xabcdu);
    EXPECT_NE(pt->walk(0x4000).paddr, frames);
}

TEST_F(MemSystemTest, SegWindowPermissionEnforced)
{
    PAddr frames = alloc.allocFrames(1);
    SegWindow seg{true, uint64_t(0x30) << 32, frames, pageSize, true,
                  false};
    TransContext c = ctx();
    c.seg = &seg;
    uint8_t b = 1;
    auto r = ms->write(0, c, uint64_t(0x30) << 32, &b, 1);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, FaultKind::SegPermissionFault);
}

TEST_F(MemSystemTest, CopyMovesBytesBetweenContexts)
{
    pt->map(0x6000, alloc.allocFrames(1), permsRW);
    std::vector<uint8_t> data(600);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 7);
    ASSERT_TRUE(ms->write(0, ctx(), 0x4000, data.data(),
                          data.size()).ok);
    auto r = ms->copy(0, ctx(), 0x4000, ctx(), 0x6000, data.size());
    ASSERT_TRUE(r.ok);
    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(ms->read(0, ctx(), 0x6000, out.data(), out.size()).ok);
    EXPECT_EQ(data, out);
}

TEST_F(MemSystemTest, LargerCopiesCostMore)
{
    pt->map(0x6000, alloc.allocFrames(1), permsRW);
    auto small = ms->copy(0, ctx(), 0x4000, ctx(), 0x6000, 64);
    auto large = ms->copy(0, ctx(), 0x4000, ctx(), 0x6000, 4096);
    EXPECT_GT(large.cycles.value(), small.cycles.value() * 10);
}

/** Property: timing state never affects functional reads. */
TEST_F(MemSystemTest, PropertyFunctionalCorrectnessUnderRandomOps)
{
    Rng rng(77);
    std::vector<uint8_t> shadow(pageSize, 0);
    for (int i = 0; i < 2000; i++) {
        uint64_t off = rng.nextBounded(pageSize - 16);
        uint64_t len = 1 + rng.nextBounded(16);
        if (rng.nextBounded(2) == 0) {
            std::vector<uint8_t> data(len);
            for (auto &d : data)
                d = uint8_t(rng.next());
            ASSERT_TRUE(ms->write(0, ctx(), 0x4000 + off, data.data(),
                                  len).ok);
            std::memcpy(shadow.data() + off, data.data(), len);
        } else {
            std::vector<uint8_t> out(len);
            ASSERT_TRUE(ms->read(0, ctx(), 0x4000 + off, out.data(),
                                 len).ok);
            EXPECT_EQ(std::memcmp(out.data(), shadow.data() + off, len),
                      0);
        }
    }
}

} // namespace
} // namespace xpc::mem
