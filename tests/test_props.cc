/**
 * @file
 * Parameterized property sweeps: invariants that must hold across
 * geometry and configuration ranges, driven by TEST_P.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "core/system.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "services/fs/xv6fs.hh"
#include "sim/random.hh"

namespace xpc {
namespace {

// --------------------------------------------------------------------
// Cache geometry sweep: timing never corrupts, LRU bounded.
// --------------------------------------------------------------------

struct CacheGeom
{
    uint64_t size;
    uint32_t line;
    uint32_t assoc;
};

class CacheSweep : public ::testing::TestWithParam<CacheGeom>
{
};

TEST_P(CacheSweep, HitRateConvergesOnSmallWorkingSet)
{
    CacheGeom g = GetParam();
    mem::Cache c({g.size, g.line, g.assoc, Cycles(2)}, nullptr,
                 Cycles(60));
    // A working set half the cache size, touched repeatedly.
    uint64_t ws = g.size / 2;
    Rng rng(1);
    for (int round = 0; round < 50; round++) {
        for (uint64_t addr = 0; addr < ws; addr += g.line)
            c.access(addr, 8, round % 2 == 0);
    }
    double hit_rate = double(c.hits.value()) /
                      double(c.hits.value() + c.misses.value());
    EXPECT_GT(hit_rate, 0.95);
}

TEST_P(CacheSweep, ThrashingWorkingSetMostlyMisses)
{
    CacheGeom g = GetParam();
    mem::Cache c({g.size, g.line, g.assoc, Cycles(2)}, nullptr,
                 Cycles(60));
    // A working set 8x the cache, streamed: almost every access
    // should miss once warmed.
    for (int round = 0; round < 4; round++) {
        for (uint64_t addr = 0; addr < 8 * g.size; addr += g.line)
            c.access(addr, 8, false);
    }
    double miss_rate = double(c.misses.value()) /
                       double(c.hits.value() + c.misses.value());
    EXPECT_GT(miss_rate, 0.95);
}

/**
 * Reference model: mem::Cache as it was before set and tag came from
 * shifts. Every probe divides by the line size and the set count; the
 * real cache must agree with it cycle for cycle.
 */
class RefCache
{
  public:
    RefCache(const mem::CacheParams &p, RefCache *n, Cycles mem_latency)
        : params(p), next(n), memLatency(mem_latency),
          numSets(uint32_t(p.sizeBytes / p.lineBytes / p.assoc)),
          lines(p.sizeBytes / p.lineBytes)
    {}

    Cycles
    access(PAddr paddr, uint64_t len, bool is_write)
    {
        if (len == 0)
            return Cycles(0);
        uint64_t first = paddr / params.lineBytes;
        uint64_t last = (paddr + len - 1) / params.lineBytes;
        Cycles total(0);
        for (uint64_t line = first; line <= last; line++)
            total += accessLine(line * params.lineBytes, is_write);
        return total;
    }

    void
    invalidateAll()
    {
        for (auto &l : lines)
            l = Line{};
    }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
    };

    mem::CacheParams params;
    RefCache *next;
    Cycles memLatency;
    uint32_t numSets;
    uint64_t clock = 0;
    std::vector<Line> lines;

    Cycles
    accessLine(uint64_t line_addr, bool is_write)
    {
        uint64_t line_num = line_addr / params.lineBytes;
        uint64_t set_idx = line_num & (numSets - 1);
        uint64_t tag = line_num / numSets;
        Line *ways = &lines[set_idx * params.assoc];
        for (uint32_t i = 0; i < params.assoc; i++) {
            Line &l = ways[i];
            if (l.valid && l.tag == tag) {
                hits++;
                l.lruStamp = ++clock;
                l.dirty |= is_write;
                return params.hitLatency;
            }
        }
        misses++;
        Line *victim = &ways[0];
        for (uint32_t i = 0; i < params.assoc; i++) {
            Line &l = ways[i];
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (l.lruStamp < victim->lruStamp)
                victim = &l;
        }
        Cycles cost = params.hitLatency;
        if (victim->valid && victim->dirty) {
            writebacks++;
            uint64_t victim_addr =
                (victim->tag * numSets + set_idx) * params.lineBytes;
            cost += next ? next->access(victim_addr, params.lineBytes, true)
                         : memLatency;
        }
        cost += next ? next->access(line_addr, params.lineBytes, false)
                     : memLatency;
        *victim = Line{true, is_write, tag, ++clock};
        return cost;
    }
};

TEST_P(CacheSweep, MatchesDividingReferenceModel)
{
    CacheGeom g = GetParam();
    // The swept geometry is the L1 over a 4-way L2 four times its size.
    mem::CacheParams l1p{g.size, g.line, g.assoc, Cycles(2)};
    mem::CacheParams l2p{4 * g.size, g.line, 4, Cycles(14)};
    mem::Cache l2(l2p, nullptr, Cycles(60));
    mem::Cache l1(l1p, &l2, Cycles(60));
    RefCache ref_l2(l2p, nullptr, Cycles(60));
    RefCache ref_l1(l1p, &ref_l2, Cycles(60));

    Rng rng(g.size + g.line + g.assoc);
    for (int i = 0; i < 20000; i++) {
        uint64_t op = rng.nextBounded(100);
        if (op == 0) {
            l1.invalidateAll();
            ref_l1.invalidateAll();
            continue;
        }
        if (op == 1) {
            l2.invalidateAll();
            ref_l2.invalidateAll();
            continue;
        }
        // Mostly short accesses that straddle lines, some page-sized
        // ones, and the odd empty one, over a footprint 8x the L1.
        PAddr addr = rng.nextBounded(8 * g.size);
        uint64_t len = op < 10   ? rng.nextBounded(2 * pageSize)
                       : op < 12 ? 0
                                 : 1 + rng.nextBounded(3 * g.line);
        bool is_write = rng.nextBounded(2) == 0;
        Cycles got = l1.access(addr, len, is_write);
        Cycles want = ref_l1.access(addr, len, is_write);
        ASSERT_EQ(got.value(), want.value())
            << "access " << i << " at " << addr << " len " << len;
        ASSERT_EQ(l1.hits.value(), ref_l1.hits) << "access " << i;
        ASSERT_EQ(l1.misses.value(), ref_l1.misses) << "access " << i;
        ASSERT_EQ(l1.writebacks.value(), ref_l1.writebacks)
            << "access " << i;
        ASSERT_EQ(l2.hits.value(), ref_l2.hits) << "access " << i;
        ASSERT_EQ(l2.misses.value(), ref_l2.misses) << "access " << i;
        ASSERT_EQ(l2.writebacks.value(), ref_l2.writebacks)
            << "access " << i;
    }
    // The stream must have exercised every path it compares.
    EXPECT_GT(ref_l1.hits, 0u);
    EXPECT_GT(ref_l1.writebacks, 0u);
    EXPECT_GT(ref_l2.hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(CacheGeom{1024, 32, 1}, CacheGeom{4096, 64, 2},
                      CacheGeom{32768, 64, 4},
                      CacheGeom{65536, 128, 8},
                      CacheGeom{16384, 64, 16}),
    [](const ::testing::TestParamInfo<CacheGeom> &info) {
        const CacheGeom &g = info.param;
        return std::to_string(g.size) + "B_" +
               std::to_string(g.line) + "L_" +
               std::to_string(g.assoc) + "W";
    });

// --------------------------------------------------------------------
// TLB geometry sweep.
// --------------------------------------------------------------------

struct TlbGeom
{
    uint32_t entries;
    uint32_t assoc;
    bool tagged;
};

class TlbSweep : public ::testing::TestWithParam<TlbGeom>
{
};

TEST_P(TlbSweep, NeverReturnsAWrongTranslation)
{
    TlbGeom g = GetParam();
    mem::Tlb tlb(g.entries, g.assoc, g.tagged);
    Rng rng(7);
    std::map<std::pair<Asid, uint64_t>, PAddr> truth;
    for (int i = 0; i < 5000; i++) {
        Asid asid = Asid(rng.nextBounded(4));
        VAddr va = pageAlignDown(rng.nextBounded(1 << 22));
        if (rng.nextBounded(2) == 0) {
            PAddr pa = pageAlignDown(rng.nextBounded(1 << 26));
            tlb.insert(asid, va, pa, mem::permsRW);
            truth[{asid, va >> pageShift}] = pa;
        } else if (const mem::TlbEntry *e = tlb.lookup(asid, va)) {
            auto it = truth.find({asid, va >> pageShift});
            ASSERT_NE(it, truth.end())
                << "TLB invented a translation";
            EXPECT_EQ(e->ppn << pageShift, it->second);
        }
    }
}

/**
 * Reference model: the TLB whose flushAll swept every entry, which the
 * real TLB's flush epoch replaced. Lookups, LRU victims and counters
 * must agree with it after any mix of inserts and flushes.
 */
class RefTlb
{
  public:
    RefTlb(uint32_t entries, uint32_t a)
        : numSets(entries / a), assoc(a), entriesVec(entries)
    {}

    const mem::TlbEntry *
    lookup(Asid asid, VAddr vaddr)
    {
        uint64_t vpn = vaddr >> pageShift;
        Entry *ways = set(vpn);
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (e.valid && e.t.vpn == vpn && e.t.asid == asid) {
                e.t.lruStamp = ++clock;
                hits++;
                return &e.t;
            }
        }
        misses++;
        return nullptr;
    }

    void
    insert(Asid asid, VAddr vaddr, PAddr paddr, mem::Perms perms)
    {
        uint64_t vpn = vaddr >> pageShift;
        Entry *ways = set(vpn);
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (e.valid && e.t.vpn == vpn && e.t.asid == asid) {
                e.t.ppn = paddr >> pageShift;
                e.t.perms = perms;
                e.t.lruStamp = ++clock;
                return;
            }
        }
        Entry *victim = &ways[0];
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.t.lruStamp < victim->t.lruStamp)
                victim = &e;
        }
        victim->valid = true;
        victim->t.asid = asid;
        victim->t.vpn = vpn;
        victim->t.ppn = paddr >> pageShift;
        victim->t.perms = perms;
        victim->t.lruStamp = ++clock;
    }

    void
    flushAll()
    {
        for (auto &e : entriesVec)
            e.valid = false;
        flushes++;
    }

    void
    flushAsid(Asid asid)
    {
        for (auto &e : entriesVec) {
            if (e.valid && e.t.asid == asid)
                e.valid = false;
        }
        flushes++;
    }

    void
    flushPage(Asid asid, VAddr vaddr)
    {
        uint64_t vpn = vaddr >> pageShift;
        Entry *ways = set(vpn);
        for (uint32_t i = 0; i < assoc; i++) {
            Entry &e = ways[i];
            if (e.valid && e.t.vpn == vpn && e.t.asid == asid)
                e.valid = false;
        }
    }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t flushes = 0;

  private:
    struct Entry
    {
        bool valid = false;
        mem::TlbEntry t;
    };

    uint32_t numSets;
    uint32_t assoc;
    uint64_t clock = 0;
    std::vector<Entry> entriesVec;

    Entry *
    set(uint64_t vpn)
    {
        return &entriesVec[(vpn & (numSets - 1)) * assoc];
    }
};

TEST_P(TlbSweep, MatchesSweepFlushReferenceModel)
{
    TlbGeom g = GetParam();
    mem::Tlb tlb(g.entries, g.assoc, g.tagged);
    RefTlb ref(g.entries, g.assoc);
    Rng rng(g.entries * 3 + g.assoc);
    uint64_t both_hit = 0;
    for (int i = 0; i < 20000; i++) {
        Asid asid = Asid(rng.nextBounded(4));
        // Four pages per entry: enough reuse to hit, enough conflict
        // to evict.
        VAddr va = (rng.nextBounded(uint64_t(g.entries) * 4)
                    << pageShift) |
                   rng.nextBounded(pageSize);
        uint64_t op = rng.nextBounded(100);
        if (op < 40) {
            PAddr pa = pageAlignDown(rng.nextBounded(1 << 26));
            mem::Perms perms = rng.nextBounded(2) ? mem::permsRW
                                                  : mem::permsRO;
            tlb.insert(asid, va, pa, perms);
            ref.insert(asid, va, pa, perms);
        } else if (op < 92) {
            const mem::TlbEntry *got = tlb.lookup(asid, va);
            const mem::TlbEntry *want = ref.lookup(asid, va);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << i;
            if (got) {
                both_hit++;
                EXPECT_EQ(got->asid, want->asid);
                EXPECT_EQ(got->vpn, want->vpn);
                EXPECT_EQ(got->ppn, want->ppn);
                EXPECT_EQ(got->perms, want->perms);
            }
        } else if (op < 95) {
            tlb.flushAll();
            ref.flushAll();
        } else if (op < 97) {
            tlb.flushAsid(asid);
            ref.flushAsid(asid);
        } else {
            tlb.flushPage(asid, va);
            ref.flushPage(asid, va);
        }
        ASSERT_EQ(tlb.hits.value(), ref.hits) << "op " << i;
        ASSERT_EQ(tlb.misses.value(), ref.misses) << "op " << i;
        ASSERT_EQ(tlb.flushes.value(), ref.flushes) << "op " << i;
    }
    EXPECT_GT(both_hit, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbSweep,
    ::testing::Values(TlbGeom{16, 2, true}, TlbGeom{64, 4, true},
                      TlbGeom{64, 4, false}, TlbGeom{256, 4, true},
                      TlbGeom{32, 32, false}),
    [](const ::testing::TestParamInfo<TlbGeom> &info) {
        const TlbGeom &g = info.param;
        return std::to_string(g.entries) + "e_" +
               std::to_string(g.assoc) + "w_" +
               (g.tagged ? "tagged" : "untagged");
    });

// --------------------------------------------------------------------
// Engine property: random nested chains always restore the caller.
// --------------------------------------------------------------------

class ChainDepth : public ::testing::TestWithParam<int>
{
};

TEST_P(ChainDepth, RandomNestedChainsRestoreEverything)
{
    const int fanout = GetParam();
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::XpcRuntime &rt = sys.runtime();

    // N services, each forwarding a random sub-window to a random
    // deeper service (by index order, to terminate).
    std::vector<kernel::Thread *> threads;
    std::vector<uint64_t> ids(static_cast<size_t>(fanout), 0);
    Rng rng(uint64_t(fanout) * 97);
    for (int i = 0; i < fanout; i++)
        threads.push_back(&sys.spawn("svc" + std::to_string(i)));

    for (int i = fanout - 1; i >= 0; i--) {
        int self = i;
        ids[size_t(i)] = rt.registerEntry(
            *threads[size_t(i)], *threads[size_t(i)],
            [&, self](core::XpcServerCall &call) {
                // Touch the message, maybe forward a shrunk window.
                uint8_t probe;
                call.readMsg(0, &probe, 1);
                call.writeMsg(0, &probe, 1);
                uint64_t len = call.requestLen();
                if (self + 1 < fanout && len >= 64) {
                    auto out = call.callNested(ids[size_t(self + 1)],
                                               0, len / 4, len / 2);
                    EXPECT_TRUE(out.ok);
                }
                call.setReplyLen(1);
            },
            4);
    }
    kernel::Thread &client = sys.spawn("client");
    sys.manager().grantXcallCap(*threads[0], client, ids[0]);
    for (int i = 0; i + 1 < fanout; i++) {
        sys.manager().grantXcallCap(*threads[size_t(i + 1)],
                                    *threads[size_t(i)],
                                    ids[size_t(i + 1)]);
    }

    hw::Core &core = sys.core(0);
    core::RelaySegHandle seg = rt.allocRelayMem(core, client, 8192);
    for (int round = 0; round < 10; round++) {
        uint8_t tag = uint8_t(rng.next());
        rt.segWrite(core, 0, &tag, 1);
        auto out = rt.call(core, client, ids[0], 0, 8192);
        ASSERT_TRUE(out.ok) << "round " << round;
        // After every chain, the client owns its full segment again.
        EXPECT_EQ(core.csrs.segId, seg.segId);
        EXPECT_EQ(core.csrs.segReg.len, seg.len);
        EXPECT_EQ(core.csrs.segMaskLen, 0u);
        EXPECT_EQ(core.csrs.linkTop, 0u);
        EXPECT_EQ(core.csrs.pageTableRoot,
                  client.process()->space().root());
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepth,
                         ::testing::Values(1, 2, 3, 5, 8));

// --------------------------------------------------------------------
// FS sweep: random operations agree with a reference model across
// buffer-cache sizes (including caches too small to hold the log).
// --------------------------------------------------------------------

class FsCacheSweep : public ::testing::TestWithParam<uint32_t>
{
};

/** Host BlockIo for the sweep. */
class SweepDisk : public services::fs::BlockIo
{
  public:
    explicit SweepDisk(uint32_t nblocks)
        : blocks(nblocks, std::vector<uint8_t>(
                              services::fs::fsBlockBytes, 0))
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

TEST_P(FsCacheSweep, RandomOpsMatchReferenceModel)
{
    SweepDisk disk(1024);
    services::fs::Xv6Fs fs;
    // Rebuild with the swept cache size by constructing in place:
    // cache capacity is fixed at construction, so exercise through
    // the public API with different working sets instead.
    services::fs::Xv6Fs::mkfs(disk, 1024);
    ASSERT_EQ(fs.mount(disk), services::fs::fsOk);

    uint32_t file_count = GetParam();
    Rng rng(file_count * 13);
    std::map<std::string, std::vector<uint8_t>> model;
    std::map<std::string, int64_t> fds;

    for (uint32_t i = 0; i < file_count; i++) {
        std::string path = "/f" + std::to_string(i);
        int64_t fd = fs.open(path, true);
        ASSERT_GE(fd, 0);
        fds[path] = fd;
        model[path] = {};
    }

    for (int op = 0; op < 300; op++) {
        std::string path =
            "/f" + std::to_string(rng.nextBounded(file_count));
        int64_t fd = fds[path];
        uint64_t off = rng.nextBounded(24 * 1024);
        uint64_t len = 1 + rng.nextBounded(6000);
        if (rng.nextBounded(3) != 0) {
            std::vector<uint8_t> data(len);
            for (auto &b : data)
                b = uint8_t(rng.next());
            ASSERT_EQ(fs.pwrite(fd, off, data.data(), len),
                      int64_t(len));
            auto &m = model[path];
            if (m.size() < off + len)
                m.resize(off + len, 0);
            std::memcpy(m.data() + off, data.data(), len);
        } else {
            std::vector<uint8_t> got(len, 0xEE);
            int64_t r = fs.pread(fd, off, got.data(), len);
            const auto &m = model[path];
            int64_t expect =
                off >= m.size()
                    ? 0
                    : int64_t(std::min<uint64_t>(len,
                                                 m.size() - off));
            ASSERT_EQ(r, expect) << path << " off " << off;
            for (int64_t i = 0; i < r; i++) {
                ASSERT_EQ(got[size_t(i)], m[off + size_t(i)])
                    << path << " byte " << off + uint64_t(i);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, FsCacheSweep,
                         ::testing::Values(1u, 3u, 8u, 16u));

// --------------------------------------------------------------------
// Transport sweep: random offsets/contents echo across flavors.
// --------------------------------------------------------------------

class TransportFuzz
    : public ::testing::TestWithParam<core::SystemFlavor>
{
};

TEST_P(TransportFuzz, RandomOffsetsAndContentsSurvive)
{
    core::SystemOptions opts;
    opts.flavor = GetParam();
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");

    core::ServiceDesc desc;
    desc.name = "patch";
    desc.handlerThread = &server;
    // Handler: copy request range [8..) shifted by one into reply.
    core::ServiceId svc = tr.registerService(
        desc, [](core::ServerApi &api) {
            uint64_t n = api.requestLen();
            std::vector<uint8_t> buf(n);
            api.readRequest(0, buf.data(), n);
            for (auto &b : buf)
                b = uint8_t(~b);
            api.writeReply(0, buf.data(), n);
            api.setReplyLen(n);
        });
    tr.connect(client, svc);

    hw::Core &core = sys.core(0);
    tr.requestArea(core, client, 64 * 1024);
    Rng rng(99);
    for (int i = 0; i < 20; i++) {
        uint64_t len = 1 + rng.nextBounded(20000);
        std::vector<uint8_t> data(len);
        for (auto &b : data)
            b = uint8_t(rng.next());
        tr.clientWrite(core, client, 0, data.data(), len);
        auto r = tr.call(core, client, svc, 0, len, 64 * 1024);
        ASSERT_TRUE(r.ok);
        ASSERT_EQ(r.replyLen, len);
        // Spot-check random offsets instead of full reads.
        for (int probe = 0; probe < 8; probe++) {
            uint64_t at = rng.nextBounded(len);
            uint8_t b = 0;
            tr.clientRead(core, client, at, &b, 1);
            ASSERT_EQ(b, uint8_t(~data[at]))
                << "len " << len << " at " << at;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, TransportFuzz,
    ::testing::Values(core::SystemFlavor::Sel4TwoCopy,
                      core::SystemFlavor::Sel4OneCopy,
                      core::SystemFlavor::Sel4Xpc,
                      core::SystemFlavor::Zircon,
                      core::SystemFlavor::ZirconXpc),
    [](const ::testing::TestParamInfo<core::SystemFlavor> &info) {
        std::string n = core::systemFlavorName(info.param);
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

} // namespace
} // namespace xpc
