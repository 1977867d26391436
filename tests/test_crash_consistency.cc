/**
 * @file
 * Crash-consistency tests: systematic crash-point exploration over
 * the journaled storage stack, plus the failing-plan shrinker.
 *
 * The exploration sweeps assert the tentpole's contract: after a
 * crash at *any* enumerable site (every durable block write, every
 * XPC phase boundary) followed by supervised restart and journal
 * recovery, committed data is intact, uncommitted data is absent,
 * and a fig07-style workload still completes. The deliberately
 * unjournaled torn-pair workload proves the explorer can find real
 * inconsistencies and that the shrinker reduces a seeded multi-fault
 * failing plan to a deterministic minimal reproducer.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "apps/crash_workloads.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/journal.hh"
#include "services/name_server.hh"
#include "services/supervisor.hh"
#include "sim/explorer.hh"

namespace xpc {
namespace {

using apps::JournalMode;
using apps::MiniDb;
using apps::MiniDbOptions;
using services::BlockDeviceServer;
using services::FsServer;
using services::NameServer;
using services::Supervisor;

void
expectNoFailures(const sim::ExplorerReport &report)
{
    EXPECT_GT(report.totalSites, 0u);
    EXPECT_GE(report.outcomes.size(), report.totalSites);
    for (const auto &o : report.failures()) {
        ADD_FAILURE() << "plan " << sim::planString(o.plan)
                      << " left the store inconsistent: " << o.detail;
    }
}

// --------------------------------------------------------------------
// Single-site sweeps over the crash-safe configurations
// --------------------------------------------------------------------

TEST(CrashSweep, MiniDbWalSurvivesEverySingleCrashSite)
{
    sim::Explorer ex(apps::makeMiniDbCrashWorkload(JournalMode::Wal));
    expectNoFailures(ex.exploreSingles());
}

TEST(CrashSweep, MiniDbRollbackSurvivesEverySingleCrashSite)
{
    sim::Explorer ex(
        apps::makeMiniDbCrashWorkload(JournalMode::Rollback));
    expectNoFailures(ex.exploreSingles());
}

TEST(CrashSweep, Xv6FsSurvivesEverySingleCrashSite)
{
    sim::Explorer ex(apps::makeXv6FsCrashWorkload());
    expectNoFailures(ex.exploreSingles());
}

// --------------------------------------------------------------------
// Crash-during-recovery pairs
// --------------------------------------------------------------------

TEST(CrashSweep, Xv6FsSurvivesSampledCrashPairs)
{
    sim::ExplorerOptions eo;
    eo.pairSamples = 32;
    sim::Explorer ex(apps::makeXv6FsCrashWorkload(), eo);
    sim::ExplorerReport report = ex.explore();
    expectNoFailures(report);
    // The pair runs are in the report too.
    EXPECT_EQ(report.outcomes.size(), report.totalSites + 32);
}

TEST(CrashSweep, MiniDbWalSurvivesSampledCrashPairs)
{
    sim::ExplorerOptions eo;
    eo.pairSamples = 12;
    sim::Explorer ex(apps::makeMiniDbCrashWorkload(JournalMode::Wal), eo);
    expectNoFailures(ex.explore());
}

// --------------------------------------------------------------------
// Determinism: same seed => byte-identical reports
// --------------------------------------------------------------------

TEST(CrashSweep, SameSeedExplorationsAreByteIdentical)
{
    sim::ExplorerOptions eo;
    eo.pairSamples = 8;
    eo.pairSeed = 1234;
    sim::Explorer a(apps::makeXv6FsCrashWorkload(), eo);
    sim::Explorer b(apps::makeXv6FsCrashWorkload(), eo);
    EXPECT_EQ(a.explore().json(), b.explore().json());
}

// --------------------------------------------------------------------
// The unjournaled workload fails, and the shrinker minimizes it
// --------------------------------------------------------------------

TEST(Shrinker, TornPairWorkloadIsGenuinelyCrashUnsafe)
{
    sim::Explorer ex(apps::makeTornPairCrashWorkload());
    sim::ExplorerReport report = ex.exploreSingles();
    EXPECT_GT(report.failures().size(), 0u)
        << "journal=None should tear under some crash site";
    // Every failure is graceful: a one-line detail, no panic.
    for (const auto &o : report.failures())
        EXPECT_FALSE(o.detail.empty());
}

TEST(Shrinker, ReducesASeededMultiFaultPlanDeterministically)
{
    sim::Explorer ex(apps::makeTornPairCrashWorkload());
    // A seeded multi-fault plan: crash at site 11, then 5 sites into
    // recovery, then 2 sites into the recovery after that.
    std::vector<uint64_t> seed_plan{11, 5, 2};
    ASSERT_FALSE(ex.runPlan(seed_plan).consistent)
        << "the seeded plan must fail for the shrink to mean much";

    std::vector<uint64_t> minimal = ex.shrink(seed_plan);
    // Deterministic: shrinking twice gives the identical plan.
    EXPECT_EQ(minimal, ex.shrink(seed_plan));

    // The reproducer still fails, and is locally minimal: it cannot
    // drop an entry, and no entry survives halving or decrementing.
    ASSERT_FALSE(minimal.empty());
    EXPECT_FALSE(ex.runPlan(minimal).consistent);
    EXPECT_LE(minimal.size(), seed_plan.size());
    if (minimal.size() == 1) {
        if (minimal[0] > 0) {
            EXPECT_TRUE(ex.runPlan({minimal[0] - 1}).consistent);
            EXPECT_TRUE(ex.runPlan({minimal[0] / 2}).consistent);
        }
    }
}

// --------------------------------------------------------------------
// The WAL commit codec, driven through its public surface
// --------------------------------------------------------------------

TEST(WalCodec, RoundTripsAndRejectsTornRecords)
{
    namespace journal = services::journal;
    journal::WalHeader hdr;
    hdr.seq = 7;
    uint8_t payload[64];
    std::memset(payload, 0x5a, sizeof(payload));
    hdr.entries.push_back({3, crc32(payload, sizeof(payload))});
    hdr.entries.push_back({9, crc32(payload, sizeof(payload))});

    std::vector<uint8_t> enc;
    hdr.encodeTo(&enc);
    EXPECT_EQ(enc.size(), journal::WalHeader::encodedBytes(2));

    journal::WalHeader back;
    ASSERT_TRUE(journal::WalHeader::decode(enc.data(), enc.size(),
                                           &back));
    EXPECT_EQ(back.seq, 7u);
    ASSERT_EQ(back.entries.size(), 2u);
    EXPECT_EQ(back.entries[0].no, 3u);
    EXPECT_EQ(back.entries[1].no, 9u);
    EXPECT_TRUE(journal::walPayloadMatches(back.entries[0], payload,
                                           sizeof(payload)));

    // A torn record - any flipped byte - decodes invalid.
    for (size_t at : {size_t(0), enc.size() / 2, enc.size() - 1}) {
        std::vector<uint8_t> torn = enc;
        torn[at] ^= 0x01;
        journal::WalHeader out;
        EXPECT_FALSE(journal::WalHeader::decode(torn.data(),
                                                torn.size(), &out))
            << "flipped byte " << at;
    }
    // A truncated record decodes invalid.
    journal::WalHeader out;
    EXPECT_FALSE(
        journal::WalHeader::decode(enc.data(), enc.size() - 1, &out));
    // An all-zero block (a cleared journal) decodes invalid.
    std::vector<uint8_t> zeros(4096, 0);
    EXPECT_FALSE(
        journal::WalHeader::decode(zeros.data(), zeros.size(), &out));
    // A corrupted payload no longer matches its entry.
    payload[5] ^= 0x80;
    EXPECT_FALSE(journal::walPayloadMatches(back.entries[0], payload,
                                            sizeof(payload)));
}

// --------------------------------------------------------------------
// Supervisor stateful recovery: hook ordering and MiniDb attach
// --------------------------------------------------------------------

struct CrashRecoveryRig
{
    std::unique_ptr<core::System> sys;
    core::Transport *tr = nullptr;
    std::unique_ptr<NameServer> ns;
    std::unique_ptr<Supervisor> sup;
    std::unique_ptr<BlockDeviceServer> dev;
    std::vector<std::unique_ptr<FsServer>> fss;
    kernel::Thread *client = nullptr;
    kernel::Thread *fsT = nullptr;

    CrashRecoveryRig()
    {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        sys = std::make_unique<core::System>(opts);
        tr = &sys->transport();
        kernel::Thread &ns_t = sys->spawn("nameserver");
        ns = std::make_unique<NameServer>(*tr, ns_t);
        sup = std::make_unique<Supervisor>(*tr, *ns);
        client = &sys->spawn("client");
        kernel::Thread &dev_t = sys->spawn("blockdev");
        dev = std::make_unique<BlockDeviceServer>(*tr, dev_t, 2048);
        kernel::Thread *t = nullptr;
        core::ServiceId id = makeFs(t, true);
        fsT = t;
        ns->bind("fs", id);
        sup->supervise("fs", *t, id, [this](kernel::Thread *&srv) {
            core::ServiceId fresh = makeFs(srv, false);
            fsT = srv;
            return fresh;
        });
    }

    core::ServiceId makeFs(kernel::Thread *&t, bool format)
    {
        t = &sys->spawn("fs");
        tr->connect(*t, dev->id());
        fss.push_back(std::make_unique<FsServer>(*tr, *t, dev->id(),
                                                 2048, format));
        return fss.back()->id();
    }

    void killFs()
    {
        if (fsT && fsT->process() && !fsT->process()->dead)
            sys->manager().onProcessExit(*fsT->process());
    }
};

TEST(StatefulRecovery, HookRunsAfterRestartButBeforeRebind)
{
    CrashRecoveryRig rig;
    hw::Core &core = rig.sys->core(0);
    core::ServiceId old_id = rig.sup->currentId("fs");
    rig.tr->connect(*rig.client, rig.ns->id());
    auto resolve_fs = [&] {
        return NameServer::resolve(*rig.tr, core, *rig.client,
                                   rig.ns->id(), "fs");
    };

    bool hook_ran = false;
    int64_t bound_at_hook_time = 0;
    core::ServiceId current_at_hook_time = 0;
    rig.sup->setRecovery("fs", [&] {
        hook_ran = true;
        // The restart already happened (currentId tracks the fresh
        // instance), but the name server still points at the dead
        // one: no client can resolve the fresh service mid-recovery.
        current_at_hook_time = rig.sup->currentId("fs");
        bound_at_hook_time = resolve_fs();
    });

    rig.killFs();
    EXPECT_TRUE(rig.sup->isDown("fs"));
    EXPECT_EQ(rig.sup->heal(), 1u);

    core::ServiceId new_id = rig.sup->currentId("fs");
    EXPECT_TRUE(hook_ran);
    EXPECT_NE(new_id, old_id);
    EXPECT_EQ(current_at_hook_time, new_id);
    EXPECT_EQ(bound_at_hook_time, int64_t(old_id));
    EXPECT_EQ(resolve_fs(), int64_t(new_id));
    EXPECT_EQ(rig.sup->recoveries.value(), 1u);
    EXPECT_EQ(rig.sup->restarts.value(), 1u);
}

TEST(StatefulRecovery, MiniDbAttachReplaysACommittedWalRecord)
{
    namespace journal = services::journal;
    CrashRecoveryRig rig;
    hw::Core &core = rig.sys->core(0);
    core::ServiceId fs = rig.sup->currentId("fs");
    rig.tr->connect(*rig.client, fs);

    // A fresh WAL-mode database with one durable record.
    MiniDbOptions db_opts;
    db_opts.journal = JournalMode::Wal;
    uint8_t v1[32];
    std::memset(v1, 0x11, sizeof(v1));
    {
        MiniDb db(*rig.tr, core, *rig.client, fs, "waltest", db_opts);
        db.put("key", v1, sizeof(v1));
        EXPECT_FALSE(db.recoveredOnOpen());
    }

    // Forge the crash window: a committed-but-unapplied WAL record
    // whose post-image is the current content of page 1. Replaying
    // it must be idempotent.
    int64_t jfd = FsServer::clientOpen(*rig.tr, core, *rig.client, fs,
                                       "/waltest-journal", false);
    ASSERT_GE(jfd, 0);
    int64_t dfd = FsServer::clientOpen(*rig.tr, core, *rig.client, fs,
                                       "/waltest", false);
    ASSERT_GE(dfd, 0);
    std::vector<uint8_t> page(4096);
    ASSERT_EQ(FsServer::clientRead(*rig.tr, core, *rig.client, fs,
                                   dfd, 4096, page.data(),
                                   page.size()),
              int64_t(page.size()));
    journal::WalHeader hdr;
    hdr.seq = 99;
    hdr.entries.push_back({1, crc32(page.data(), page.size())});
    ASSERT_EQ(FsServer::clientWrite(*rig.tr, core, *rig.client, fs,
                                    jfd, 4096, page.data(),
                                    page.size()),
              int64_t(page.size()));
    std::vector<uint8_t> rec;
    hdr.encodeTo(&rec);
    ASSERT_EQ(FsServer::clientWrite(*rig.tr, core, *rig.client, fs,
                                    jfd, 0, rec.data(), rec.size()),
              int64_t(rec.size()));

    // Attach: recovery consumes the record and the data is intact.
    db_opts.createFresh = false;
    {
        MiniDb db(*rig.tr, core, *rig.client, fs, "waltest", db_opts);
        EXPECT_TRUE(db.recoveredOnOpen());
        auto got = db.get("key");
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->size(), sizeof(v1));
        EXPECT_EQ(0, std::memcmp(got->data(), v1, sizeof(v1)));
    }

    // A *torn* record (bad image checksum) is discarded whole.
    hdr.entries[0].crc ^= 0xdeadbeef;
    rec.clear();
    hdr.encodeTo(&rec);
    ASSERT_EQ(FsServer::clientWrite(*rig.tr, core, *rig.client, fs,
                                    jfd, 0, rec.data(), rec.size()),
              int64_t(rec.size()));
    {
        MiniDb db(*rig.tr, core, *rig.client, fs, "waltest", db_opts);
        EXPECT_FALSE(db.recoveredOnOpen());
        auto got = db.get("key");
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(0, std::memcmp(got->data(), v1, sizeof(v1)));
    }
}

TEST(StatefulRecovery, Xv6FsMountReportsLogReplay)
{
    CrashRecoveryRig rig;
    // The formatting mount of a fresh volume replays nothing.
    EXPECT_FALSE(rig.fss.back()->fsImpl().recoveredOnMount());

    // An attach mount of a cleanly-unmounted volume replays nothing
    // either (the log header is zero).
    rig.killFs();
    rig.sup->heal();
    EXPECT_FALSE(rig.fss.back()->fsImpl().recoveredOnMount());
}

} // namespace
} // namespace xpc
