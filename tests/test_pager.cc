/**
 * @file
 * Tests for MiniDb's storage internals: the FS-backed paged file
 * (cache hits, eviction order and write-back, pre-image hook
 * ordering) and the xv6fs buffer cache (pinning discipline, and every
 * disk access against a list-scan reference model).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <list>
#include <utility>
#include <vector>

#include "apps/minidb/paged_file.hh"
#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/fs/xv6fs.hh"
#include "sim/random.hh"

namespace xpc::apps {
namespace {

class PagerTest : public ::testing::Test
{
  protected:
    PagerTest()
    {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        sys = std::make_unique<core::System>(opts);
        kernel::Thread &dev_t = sys->spawn("dev");
        kernel::Thread &fs_t = sys->spawn("fs");
        client = &sys->spawn("client");
        dev = std::make_unique<services::BlockDeviceServer>(
            sys->transport(), dev_t, 2048);
        sys->transport().connect(fs_t, dev->id());
        fsrv = std::make_unique<services::FsServer>(
            sys->transport(), fs_t, dev->id(), 2048);
        sys->transport().connect(*client, fsrv->id());
    }

    std::unique_ptr<core::System> sys;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fsrv;
    kernel::Thread *client = nullptr;
};

TEST_F(PagerTest, AppendGetRoundTrips)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/p.db", 8);
    uint32_t p = pf.appendPage();
    DbPage &page = pf.get(p);
    std::memset(page.data.data(), 0x5d, 64);
    pf.markDirty(p);
    pf.flushDirty();

    // A fresh pager over the same file sees the bytes.
    PagedFile pf2(sys->transport(), sys->core(0), *client,
                  fsrv->id(), "/p.db", 8);
    pf2.adoptPages(1);
    DbPage &again = pf2.get(p);
    EXPECT_EQ(again.data[0], 0x5d);
    EXPECT_EQ(again.data[63], 0x5d);
}

TEST_F(PagerTest, EvictionWritesDirtyVictimsBack)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/evict.db", 4);
    // Dirty 8 pages through a 4-page cache: the pager must write
    // victims back on eviction, not lose them.
    for (uint32_t i = 0; i < 8; i++) {
        uint32_t p = pf.appendPage();
        DbPage &page = pf.get(p);
        page.data[0] = uint8_t(0xA0 + i);
        pf.markDirty(p);
    }
    EXPECT_GT(pf.pageWrites.value(), 0u);
    pf.flushDirty();
    for (uint32_t i = 0; i < 8; i++) {
        DbPage &page = pf.get(i);
        EXPECT_EQ(page.data[0], uint8_t(0xA0 + i)) << "page " << i;
    }
}

TEST_F(PagerTest, PreImageHookSeesDataBeforeTheWrite)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/hook.db", 8);
    uint32_t p = pf.appendPage();
    {
        DbPage &page = pf.get(p);
        page.data[0] = 0x11;
        pf.markDirty(p);
    }
    pf.flushDirty();

    uint8_t captured = 0;
    pf.preImageHook = [&](uint32_t page_no, const DbPage &pre) {
        EXPECT_EQ(page_no, p);
        captured = pre.data[0];
    };
    // Discipline: markDirty BEFORE modifying.
    DbPage &page = pf.get(p);
    pf.markDirty(p);
    page.data[0] = 0x22;
    EXPECT_EQ(captured, 0x11); // the pre-image, not the new value
}

TEST_F(PagerTest, SecondDirtyInSameEpochSkipsTheHook)
{
    PagedFile pf(sys->transport(), sys->core(0), *client,
                 fsrv->id(), "/hook2.db", 8);
    uint32_t p = pf.appendPage();
    int hook_calls = 0;
    pf.preImageHook = [&](uint32_t, const DbPage &) { hook_calls++; };
    pf.get(p);
    pf.markDirty(p);
    pf.markDirty(p); // absorbed
    EXPECT_EQ(hook_calls, 1);
    EXPECT_EQ(pf.dirtyPages().size(), 1u);
}

// --------------------------------------------------------------------
// Which page the paged file evicts: the least recently used, where a
// get() and a markDirty() both count as a use.
// --------------------------------------------------------------------

class PagerRecencyTest : public PagerTest
{
  protected:
    PagerRecencyTest()
        : pf(sys->transport(), sys->core(0), *client, fsrv->id(),
             "/recency.db", 3)
    {
        // Six pages, then pages 0, 1, 2 cached in that order (2 the
        // most recently used).
        for (int i = 0; i < 6; i++)
            pf.appendPage();
        for (uint32_t p = 0; p < 3; p++)
            pf.get(p);
    }

    /** get(@p p) and report whether it had to read the page. */
    bool
    missed(uint32_t p)
    {
        uint64_t misses = pf.cacheMisses.value();
        uint64_t reads = pf.pageReads.value();
        pf.get(p);
        EXPECT_EQ(pf.cacheMisses.value() - misses,
                  pf.pageReads.value() - reads);
        return pf.cacheMisses.value() != misses;
    }

    PagedFile pf;
};

TEST_F(PagerRecencyTest, GetRefreshesAPageAgainstEviction)
{
    EXPECT_FALSE(missed(0)); // 0 is now the most recently used
    EXPECT_TRUE(missed(3));  // evicts 1, not 0
    EXPECT_FALSE(missed(0));
    EXPECT_TRUE(missed(1));
}

TEST_F(PagerRecencyTest, MarkDirtyRefreshesAPageAgainstEviction)
{
    pf.markDirty(0);        // 0 is now the most recently used
    EXPECT_TRUE(missed(3)); // evicts 1, not 0
    EXPECT_FALSE(missed(0));
    EXPECT_TRUE(missed(1));
    EXPECT_EQ(pf.pageWrites.value(), 0u);
}

TEST_F(PagerRecencyTest, PreferCleanEvictsTheLeastRecentlyUsedCleanPage)
{
    pf.preferCleanEviction = true;
    pf.markDirty(1); // order 0, 2, 1(dirty)
    pf.get(2);
    pf.get(0);       // order 1(dirty), 2, 0: 1 is older than 2
    EXPECT_TRUE(missed(3)); // evicts 2, not the dirty 1
    EXPECT_EQ(pf.pageWrites.value(), 0u);
    EXPECT_FALSE(missed(1));
    EXPECT_FALSE(missed(0));
    EXPECT_TRUE(missed(2));
    EXPECT_EQ(pf.pageWrites.value(), 0u);
}

TEST_F(PagerRecencyTest, PreferCleanWritesHomeOnlyWhenAllAreDirty)
{
    pf.preferCleanEviction = true;
    pf.markDirty(0);
    pf.get(0).data[0] = 0xd0;
    pf.markDirty(1);
    pf.get(1).data[0] = 0xd1;
    EXPECT_TRUE(missed(3)); // evicts the clean 2
    EXPECT_EQ(pf.pageWrites.value(), 0u);
    pf.markDirty(3);        // order 0, 1, 3, all dirty
    EXPECT_TRUE(missed(4)); // writes 0 home and evicts it
    EXPECT_EQ(pf.pageWrites.value(), 1u);
    EXPECT_FALSE(missed(1));
    EXPECT_FALSE(missed(3));
    EXPECT_TRUE(missed(0)); // evicts the clean 4
    EXPECT_EQ(pf.get(0).data[0], 0xd0);
    EXPECT_EQ(pf.pageWrites.value(), 1u);
}

TEST_F(PagerRecencyTest, ReusedNodeHoldsOnlyThePageReadIntoIt)
{
    // An evicted page's node is reused for the page read in its
    // place: after the read it must hold that page's bytes only.
    auto filled = [this](uint32_t p, uint8_t v) {
        const DbPage &page = pf.get(p);
        return page.pageNo == p && !page.dirty &&
               std::all_of(page.data.begin(), page.data.end(),
                           [v](uint8_t b) { return b == v; });
    };
    pf.markDirty(0);
    pf.get(0).data.fill(0xd0);
    pf.flushDirty();        // page 0 is home: the file is one page
    pf.markDirty(1);        // order 2, 0, 1(dirty)
    pf.get(1).data.fill(0xd1);
    EXPECT_TRUE(missed(3)); // evicts 2
    EXPECT_TRUE(missed(4)); // evicts 0: order 1(dirty), 3, 4
    EXPECT_EQ(pf.pageWrites.value(), 1u);
    EXPECT_TRUE(missed(0)); // writes 1 home, reads 0 into its node
    EXPECT_EQ(pf.pageWrites.value(), 2u);
    EXPECT_TRUE(filled(0, 0xd0));
    EXPECT_TRUE(missed(1)); // evicts 3; 1 went home whole
    EXPECT_TRUE(filled(1, 0xd1));

    // A page past the end of the file reads as zeros, also into the
    // node of a dirty page.
    pf.markDirty(4);        // order 0, 1, 4(dirty)
    pf.get(4).data.fill(0x44);
    pf.get(0);
    pf.get(1);              // order 4(dirty), 0, 1
    EXPECT_TRUE(missed(5)); // writes 4 home, reads 5 into its node
    EXPECT_EQ(pf.pageWrites.value(), 3u);
    EXPECT_TRUE(filled(5, 0));
}

// --------------------------------------------------------------------
// xv6fs buffer cache: pinning, and every disk access against the
// list-scan reference.
// --------------------------------------------------------------------

class CountingDisk : public services::fs::BlockIo
{
  public:
    explicit CountingDisk(uint32_t n)
        : blocks(n, std::vector<uint8_t>(services::fs::fsBlockBytes,
                                         0))
    {}

    void
    read(uint32_t b, void *dst) override
    {
        reads++;
        log.emplace_back('r', b);
        std::memcpy(dst, blocks.at(b).data(),
                    services::fs::fsBlockBytes);
    }

    void
    write(uint32_t b, const void *src) override
    {
        writes++;
        log.emplace_back('w', b);
        std::memcpy(blocks.at(b).data(), src,
                    services::fs::fsBlockBytes);
    }

    std::vector<std::vector<uint8_t>> blocks;
    uint64_t reads = 0;
    uint64_t writes = 0;
    /** Every access in order: ('r' or 'w', block). */
    std::vector<std::pair<char, uint32_t>> log;
};

/**
 * Reference buffer cache: the list-scan BufCache that an indexed one
 * must match access for access (a lookup scans every buffer; the
 * victim is the unpinned buffer with the oldest stamp). Never edit it
 * to match a new cache; if the differential test fails, the cache is
 * wrong.
 */
class RefBufCache
{
  public:
    explicit RefBufCache(uint32_t nbufs) : capacity(nbufs) {}

    struct Buf
    {
        uint32_t blockNo = 0;
        bool valid = false;
        bool dirty = false;
        bool pinned = false;
        uint64_t lru = 0;
        std::array<uint8_t, services::fs::fsBlockBytes> data;
    };

    void
    pin(uint32_t block_no, bool pinned)
    {
        for (auto &b : bufs) {
            if (b.valid && b.blockNo == block_no) {
                b.pinned = pinned;
                return;
            }
        }
    }

    Buf &
    get(services::fs::BlockIo &io, uint32_t block_no)
    {
        for (auto &b : bufs) {
            if (b.valid && b.blockNo == block_no) {
                hits++;
                b.lru = ++clock;
                return b;
            }
        }
        misses++;

        if (bufs.size() >= capacity) {
            auto victim = bufs.end();
            for (auto it = bufs.begin(); it != bufs.end(); ++it) {
                if (it->pinned)
                    continue;
                if (victim == bufs.end() || it->lru < victim->lru)
                    victim = it;
            }
            if (victim != bufs.end()) {
                if (victim->valid && victim->dirty)
                    io.write(victim->blockNo, victim->data.data());
                bufs.erase(victim);
            }
        }

        bufs.emplace_back();
        Buf &b = bufs.back();
        b.blockNo = block_no;
        b.valid = true;
        b.dirty = false;
        b.lru = ++clock;
        io.read(block_no, b.data.data());
        return b;
    }

    void
    flushAll(services::fs::BlockIo &io)
    {
        for (auto &b : bufs) {
            if (b.valid && b.dirty) {
                io.write(b.blockNo, b.data.data());
                b.dirty = false;
            }
        }
    }

    void invalidateAll() { bufs.clear(); }

    uint64_t hits = 0;
    uint64_t misses = 0;

  private:
    uint32_t capacity;
    uint64_t clock = 0;
    std::list<Buf> bufs;
};

TEST(BufCachePin, PinnedBuffersSurviveCachePressure)
{
    CountingDisk disk(256);
    services::fs::BufCache cache(4);
    // Fill a block, pin it, then stream far more blocks than the
    // cache holds: the pinned buffer must not be written back early
    // (write-ahead ordering) nor evicted.
    auto &pinned = cache.get(disk, 10);
    pinned.data[0] = 0x77;
    pinned.dirty = true;
    cache.pin(10, true);

    uint64_t writes_before = disk.writes;
    for (uint32_t b = 20; b < 60; b++)
        cache.get(disk, b);
    // The pinned dirty block was never flushed by eviction.
    EXPECT_EQ(disk.writes, writes_before);
    auto &still = cache.get(disk, 10);
    EXPECT_EQ(still.data[0], 0x77);
    EXPECT_TRUE(still.dirty);

    cache.pin(10, false);
    for (uint32_t b = 60; b < 100; b++)
        cache.get(disk, b);
    // Unpinned, it eventually ages out and is written back.
    EXPECT_GT(disk.writes, writes_before);
    EXPECT_EQ(disk.blocks[10][0], 0x77);
}

TEST(BufCachePin, HitCountersTrackLocality)
{
    CountingDisk disk(64);
    services::fs::BufCache cache(8);
    for (int round = 0; round < 10; round++)
        for (uint32_t b = 0; b < 4; b++)
            cache.get(disk, b);
    EXPECT_EQ(cache.misses.value(), 4u);
    EXPECT_EQ(cache.hits.value(), 36u);
    EXPECT_EQ(disk.reads, 4u);
}

class BufCacheSweep : public ::testing::TestWithParam<uint32_t>
{};

/**
 * The buffer cache against RefBufCache, each over its own disk: a
 * seeded stream of gets (some dirtying the buffer), pins, unpins,
 * flushes and invalidations over 4x more blocks than buffers, with an
 * all-pinned stretch that grows the cache past its capacity. After
 * every step both disks must have seen the same accesses in the same
 * order, and both caches the same hits and misses.
 */
TEST_P(BufCacheSweep, MatchesListScanReference)
{
    const uint32_t cap = GetParam();
    const uint32_t nblocks = 4 * cap;
    CountingDisk disk(nblocks), ref_disk(nblocks);
    services::fs::BufCache cache(cap);
    RefBufCache ref(cap);
    Rng rng(cap);

    auto get = [&](uint32_t b, bool dirty) {
        auto &buf = cache.get(disk, b);
        auto &ref_buf = ref.get(ref_disk, b);
        ASSERT_EQ(buf.blockNo, b);
        ASSERT_EQ(buf.dirty, ref_buf.dirty);
        ASSERT_EQ(buf.data, ref_buf.data);
        if (dirty) {
            uint8_t v = uint8_t(rng.next());
            buf.data[b % services::fs::fsBlockBytes] = v;
            ref_buf.data[b % services::fs::fsBlockBytes] = v;
            buf.dirty = ref_buf.dirty = true;
        }
    };
    auto pin = [&](uint32_t b, bool pinned) {
        cache.pin(b, pinned);
        ref.pin(b, pinned);
    };
    auto step = [&](int i) {
        ASSERT_EQ(disk.log, ref_disk.log) << "step " << i;
        ASSERT_EQ(cache.hits.value(), ref.hits) << "step " << i;
        ASSERT_EQ(cache.misses.value(), ref.misses) << "step " << i;
    };

    for (int i = 0; i < 3000; i++) {
        uint32_t b = uint32_t(rng.nextBounded(nblocks));
        uint64_t op = rng.nextBounded(100);
        if (op < 60) {
            ASSERT_NO_FATAL_FAILURE(get(b, rng.nextBounded(3) == 0));
        } else if (op < 75) {
            pin(b, true);
        } else if (op < 95) {
            pin(b, false);
        } else if (op < 99) {
            cache.flushAll(disk);
            ref.flushAll(ref_disk);
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_NO_FATAL_FAILURE(step(i));

        if (i == 1500) {
            // All pinned: 2x capacity distinct blocks, each pinned
            // once read (and half of them dirtied), then released.
            for (uint32_t k = 0; k < 2 * cap; k++) {
                ASSERT_NO_FATAL_FAILURE(get(k, k % 2 == 0));
                pin(k, true);
                ASSERT_NO_FATAL_FAILURE(step(i));
            }
            for (uint32_t k = 0; k < nblocks; k++) {
                ASSERT_NO_FATAL_FAILURE(get(k, false));
                ASSERT_NO_FATAL_FAILURE(step(i));
            }
            for (uint32_t k = 0; k < 2 * cap; k++)
                pin(k, false);
        }
    }
    cache.flushAll(disk);
    ref.flushAll(ref_disk);
    ASSERT_NO_FATAL_FAILURE(step(-1));
    EXPECT_EQ(disk.blocks, ref_disk.blocks);
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(disk.writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufCacheSweep,
                         ::testing::Values(4u, 64u));

} // namespace
} // namespace xpc::apps
