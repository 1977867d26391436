/**
 * @file
 * Tests for the application layer: the B+tree (unit + property), the
 * paged file, MiniDb's journaled transactions over the FS server,
 * and the YCSB driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "apps/minidb/minidb.hh"
#include "apps/ycsb.hh"
#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "sim/random.hh"

namespace xpc::apps {
namespace {

/** One wired system: blockdev + FS + a DB client. */
class DbFixtureBase
{
  public:
    explicit DbFixtureBase(core::SystemFlavor flavor)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        sys = std::make_unique<core::System>(opts);
        recorder = std::make_unique<core::RecordingTransport>(
            sys->transport());

        kernel::Thread &dev_t = sys->spawn("blockdev");
        kernel::Thread &fs_t = sys->spawn("fs");
        client = &sys->spawn("db-client");

        dev = std::make_unique<services::BlockDeviceServer>(
            *recorder, dev_t, 4096);
        recorder->connect(fs_t, dev->id());
        fsrv = std::make_unique<services::FsServer>(*recorder, fs_t,
                                                    dev->id(), 4096);
        recorder->connect(*client, fsrv->id());
    }

    MiniDb
    makeDb(const std::string &name, uint32_t cache_pages = 64)
    {
        return MiniDb(*recorder, sys->core(0), *client, fsrv->id(),
                      name, cache_pages);
    }

    std::unique_ptr<core::System> sys;
    std::unique_ptr<core::RecordingTransport> recorder;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fsrv;
    kernel::Thread *client = nullptr;
};

class MiniDbTest : public ::testing::Test, public DbFixtureBase
{
  protected:
    MiniDbTest() : DbFixtureBase(core::SystemFlavor::Sel4Xpc) {}
};

TEST_F(MiniDbTest, PutGetRoundTrip)
{
    MiniDb db = makeDb("t1.db");
    std::vector<uint8_t> value(500, 0x5c);
    db.put("alpha", value.data(), uint32_t(value.size()));
    auto got = db.get("alpha");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
    EXPECT_FALSE(db.get("beta").has_value());
}

TEST_F(MiniDbTest, UpdateOverwrites)
{
    MiniDb db = makeDb("t2.db");
    uint32_t a = 1, b = 2;
    db.put("k", &a, sizeof(a));
    db.put("k", &b, sizeof(b));
    auto got = db.get("k");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->size(), sizeof(b));
    uint32_t out;
    std::memcpy(&out, got->data(), 4);
    EXPECT_EQ(out, 2u);
    EXPECT_EQ(db.tree().recordCount(), 1u);
}

TEST_F(MiniDbTest, ManyRecordsSplitTheTree)
{
    MiniDb db = makeDb("t3.db");
    std::vector<uint8_t> value(800);
    for (int i = 0; i < 300; i++) {
        std::string key = "key" + std::to_string(1000 + i);
        for (auto &v : value)
            v = uint8_t(i);
        db.put(key, value.data(), uint32_t(value.size()));
    }
    EXPECT_GT(db.tree().height(), 1u);
    EXPECT_EQ(db.tree().recordCount(), 300u);
    db.tree().checkInvariants();
    for (int i = 0; i < 300; i += 37) {
        auto got = db.get("key" + std::to_string(1000 + i));
        ASSERT_TRUE(got.has_value()) << i;
        EXPECT_EQ((*got)[0], uint8_t(i));
    }
}

TEST_F(MiniDbTest, GetsEveryKeyOfAThreeLevelTree)
{
    MiniDb db = makeDb("t3b.db");
    auto key = [](int n) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "key%05d", n);
        return std::string(buf);
    };
    auto value = [](int i) {
        std::vector<uint8_t> v(1 + uint32_t(i) * 37 % btreeValueMax);
        for (size_t j = 0; j < v.size(); j++)
            v[j] = uint8_t(i * 7 + int(j));
        return v;
    };
    // Records at the even numbers 10, 12, ..., inserted out of order
    // (151 is coprime to n, so i runs over every record once).
    const int n = 400;
    for (int k = 0; k < n; k++) {
        int i = k * 151 % n;
        auto v = value(i);
        db.put(key(10 + 2 * i), v.data(), uint32_t(v.size()));
    }
    ASSERT_GE(db.tree().height(), 3u);
    db.tree().checkInvariants();

    for (int i = 0; i < n; i++) {
        auto got = db.get(key(10 + 2 * i));
        ASSERT_TRUE(got.has_value()) << i;
        EXPECT_EQ(*got, value(i)) << i;
        // Between a record and the next one up.
        EXPECT_FALSE(db.get(key(11 + 2 * i)).has_value()) << i;
    }
    for (const char *absent : {"", "a", "key00009", "key00010\x01",
                               "key99999", "z"})
        EXPECT_FALSE(db.get(absent).has_value()) << absent;
}

TEST_F(MiniDbTest, ScanVisitsInOrder)
{
    MiniDb db = makeDb("t4.db");
    for (int i = 0; i < 50; i++) {
        char key[16];
        std::snprintf(key, sizeof(key), "k%03d", i);
        uint32_t v = uint32_t(i);
        db.put(key, &v, sizeof(v));
    }
    std::vector<uint32_t> seen;
    db.tree().scan(BtKey::fromString("k010"), 10,
                   [&](const BtKey &, const uint8_t *val, uint32_t) {
                       uint32_t v;
                       std::memcpy(&v, val, 4);
                       seen.push_back(v);
                   });
    ASSERT_EQ(seen.size(), 10u);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(seen[i], uint32_t(10 + i));
}

TEST_F(MiniDbTest, EraseRemoves)
{
    MiniDb db = makeDb("t5.db");
    uint32_t v = 9;
    db.put("gone", &v, sizeof(v));
    EXPECT_TRUE(db.tree().erase(BtKey::fromString("gone")));
    EXPECT_FALSE(db.get("gone").has_value());
    EXPECT_FALSE(db.tree().erase(BtKey::fromString("gone")));
}

TEST_F(MiniDbTest, WritesJournalBeforeData)
{
    MiniDb db = makeDb("t6.db");
    uint64_t journal0 = db.journalPages.value();
    std::vector<uint8_t> value(900, 1);
    db.put("tx", value.data(), uint32_t(value.size()));
    EXPECT_GT(db.journalPages.value(), journal0);
    EXPECT_GE(db.transactions.value(), 1u);
}

TEST_F(MiniDbTest, ReadsHitThePageCacheWritesGoToDisk)
{
    MiniDb db = makeDb("t7.db");
    std::vector<uint8_t> value(200, 3);
    db.put("hot", value.data(), uint32_t(value.size()));
    uint64_t reads0 = db.pager().pageReads.value();
    for (int i = 0; i < 50; i++)
        EXPECT_TRUE(db.get("hot").has_value());
    // Point reads of a hot key never touch the FS.
    EXPECT_EQ(db.pager().pageReads.value(), reads0);

    uint64_t writes0 = db.pager().pageWrites.value();
    db.put("hot", value.data(), uint32_t(value.size()));
    EXPECT_GT(db.pager().pageWrites.value(), writes0);
}

/** Property test: MiniDb agrees with a std::map reference model. */
TEST_F(MiniDbTest, PropertyMatchesReferenceModel)
{
    MiniDb db = makeDb("t8.db");
    std::map<std::string, std::vector<uint8_t>> model;
    Rng rng(21);
    for (int i = 0; i < 400; i++) {
        std::string key =
            "p" + std::to_string(rng.nextBounded(60));
        uint64_t action = rng.nextBounded(10);
        if (action < 6) {
            std::vector<uint8_t> value(1 + rng.nextBounded(600));
            for (auto &v : value)
                v = uint8_t(rng.next());
            db.put(key, value.data(), uint32_t(value.size()));
            model[key] = value;
        } else if (action < 9) {
            auto got = db.get(key);
            auto ref = model.find(key);
            if (ref == model.end()) {
                EXPECT_FALSE(got.has_value()) << key;
            } else {
                ASSERT_TRUE(got.has_value()) << key;
                EXPECT_EQ(*got, ref->second) << key;
            }
        } else {
            bool had = db.tree().erase(BtKey::fromString(key));
            EXPECT_EQ(had, model.erase(key) > 0) << key;
        }
    }
    db.tree().checkInvariants();
    EXPECT_EQ(db.tree().recordCount(), model.size());
}

TEST_F(MiniDbTest, YcsbLoadAndAllWorkloadsRun)
{
    MiniDb db = makeDb("ycsb.db", 128);
    YcsbConfig cfg;
    cfg.records = 120;
    cfg.operations = 60;
    Ycsb ycsb(cfg);
    ycsb.load(db, sys->core(0));
    EXPECT_EQ(db.tree().recordCount(), cfg.records);

    for (auto w : {YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C,
                   YcsbWorkload::D, YcsbWorkload::E, YcsbWorkload::F}) {
        YcsbResult r = ycsb.run(db, sys->core(0), w);
        EXPECT_EQ(r.operations, cfg.operations) << ycsbName(w);
        EXPECT_GT(r.totalCycles.value(), 0u) << ycsbName(w);
        switch (w) {
          case YcsbWorkload::C:
            EXPECT_EQ(r.updates + r.inserts + r.scans, 0u);
            break;
          case YcsbWorkload::E:
            EXPECT_GT(r.scans, r.inserts);
            break;
          default:
            break;
        }
    }
    db.tree().checkInvariants();
}

TEST_F(MiniDbTest, RecordingTransportSeesTheIpc)
{
    recorder->reset();
    MiniDb db = makeDb("rec.db");
    std::vector<uint8_t> value(700, 9);
    db.put("x", value.data(), uint32_t(value.size()));
    EXPECT_GT(recorder->calls, 0u);
    EXPECT_GT(recorder->totalRoundTrip, 0u);
    EXPECT_GE(recorder->totalRoundTrip, recorder->totalHandler);
}

TEST(MiniDbFlavors, WriteHeavyRunsFasterOnXpc)
{
    auto measure = [](core::SystemFlavor flavor) {
        DbFixtureBase fix(flavor);
        MiniDb db = fix.makeDb("bench.db", 128);
        YcsbConfig cfg;
        cfg.records = 60;
        cfg.operations = 40;
        Ycsb ycsb(cfg);
        ycsb.load(db, fix.sys->core(0));
        YcsbResult r = ycsb.run(db, fix.sys->core(0), YcsbWorkload::A);
        return r.totalCycles.value();
    };
    uint64_t xpc = measure(core::SystemFlavor::Sel4Xpc);
    uint64_t sel4 = measure(core::SystemFlavor::Sel4TwoCopy);
    uint64_t zircon = measure(core::SystemFlavor::Zircon);
    EXPECT_GT(sel4, xpc);
    EXPECT_GT(zircon, sel4);
}

class BTreeDeathTest : public ::testing::Test, public DbFixtureBase
{
  protected:
    BTreeDeathTest() : DbFixtureBase(core::SystemFlavor::Sel4Xpc) {}
};

TEST_F(BTreeDeathTest, OversizedLeafSlotPanicsOnGet)
{
    MiniDb db = makeDb("corrupt.db");
    uint32_t v = 5;
    db.put("only", &v, sizeof(v));
    ASSERT_TRUE(db.get("only").has_value());

    // Page 0 holds {magic, root}; the root is the one leaf. Its first
    // slot is {24-byte key, uint32 length, value} after an 8-byte
    // header.
    uint32_t root;
    std::memcpy(&root, db.pager().get(0).data.data() + 4, 4);
    uint32_t len = btreeValueMax + 1;
    std::memcpy(db.pager().get(root).data.data() + 8 + btreeKeyBytes,
                &len, 4);
    EXPECT_DEATH(db.get("only"), "corrupt leaf slot");
}

} // namespace
} // namespace xpc::apps
