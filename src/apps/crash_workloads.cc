#include "crash_workloads.hh"

#include <cstring>
#include <map>
#include <optional>

#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/name_server.hh"
#include "services/supervisor.hh"
#include "sim/logging.hh"

namespace xpc::apps {
namespace {

using services::BlockDeviceServer;
using services::FsServer;
using services::NameServer;
using services::Supervisor;

constexpr uint64_t diskBlocks = 2048;

/**
 * The shared machine under every crash workload: block device (the
 * durable medium - it survives every crash), a supervised FS server
 * (volatile: killed and restarted with journal replay on every
 * crash) and a client thread. Old FsServer instances go to a
 * graveyard vector because transport-side handler closures reference
 * them by pointer.
 */
class CrashRig
{
  public:
    CrashRig()
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
        dev = std::make_unique<BlockDeviceServer>(*tr, dev_t,
                                                  diskBlocks);
        kernel::Thread *t = nullptr;
        core::ServiceId id = makeFs(t, /*format=*/true);
        fsT = t;
        ns->bind("fs", id);
        sup->supervise("fs", *t, id, [this](kernel::Thread *&srv) {
            // Attach, don't format: mount() replays any committed
            // FS log before the service re-registers.
            core::ServiceId fresh = makeFs(srv, /*format=*/false);
            fsT = srv;
            return fresh;
        });
    }

    void
    installInjector(FaultInjector &inj)
    {
        sys->machine().setFaultInjector(&inj);
    }

    /** Power-cut teardown: the FS process dies with the machine;
     *  heal() restarts it and runs the recovery hooks. */
    void
    restartFs()
    {
        if (fsT && fsT->process() && !fsT->process()->dead)
            sys->manager().onProcessExit(*fsT->process());
        sup->heal();
    }

    core::ServiceId fsId() const { return sup->currentId("fs"); }
    hw::Core &core0() { return sys->core(0); }

    std::unique_ptr<core::System> sys;
    core::Transport *tr = nullptr;
    std::unique_ptr<NameServer> ns;
    std::unique_ptr<Supervisor> sup;
    std::unique_ptr<BlockDeviceServer> dev;
    std::vector<std::unique_ptr<FsServer>> fss;
    kernel::Thread *client = nullptr;
    kernel::Thread *fsT = nullptr;

  private:
    core::ServiceId
    makeFs(kernel::Thread *&t, bool format)
    {
        t = &sys->spawn("fs");
        tr->connect(*t, dev->id());
        fss.push_back(std::make_unique<FsServer>(
            *tr, *t, dev->id(), diskBlocks, format));
        return fss.back()->id();
    }
};

// --------------------------------------------------------------------
// MiniDb: per-key atomicity under a journaled (or not) store
// --------------------------------------------------------------------

class MiniDbCrashWorkload : public sim::CrashWorkload
{
  public:
    explicit MiniDbCrashWorkload(JournalMode mode) : journal(mode)
    {
        rig.sup->setRecovery("fs", [this] { attachDb(); });
    }

    void
    run(FaultInjector &inj_) override
    {
        inj = &inj_;
        rig.installInjector(inj_);
        rig.tr->connect(*rig.client, rig.fsId());
        MiniDbOptions db_opts;
        db_opts.journal = journal;
        db_opts.createFresh = true;
        db = std::make_unique<MiniDb>(*rig.tr, rig.core0(),
                                      *rig.client, rig.fsId(), "crash",
                                      db_opts);
        // Generation 1 lands outside the fault space: the invariant
        // map starts with every key acknowledged and durable.
        runGeneration();
        inj->enabled = true;
        runGeneration();
    }

    std::string
    recoverAndVerify(FaultInjector &inj_) override
    {
        (void)inj_;
        // The power cut killed the volatile half: the client's
        // database object and the FS server process.
        db.reset();
        rig.restartFs();
        if (inj->crashed())
            return ""; // recovery hit the next armed site; go again
        std::string err = verify();
        if (!err.empty())
            return err;
        // fig07-style epilogue: the store must still absorb a full
        // update generation after recovery.
        runGeneration();
        if (inj->crashed())
            return "";
        return verify();
    }

  private:
    std::string keyName(uint32_t i) { return "k" + std::to_string(i); }

    std::vector<uint8_t>
    valueFor(uint64_t gen, uint32_t i)
    {
        std::vector<uint8_t> val(64);
        std::memcpy(val.data(), &gen, sizeof(gen));
        for (size_t b = sizeof(gen); b < val.size(); b++)
            val[b] = uint8_t(gen * 13 + i * 7 + b);
        return val;
    }

    /** Run inside heal(), between the FS restart and the re-bind:
     *  attach to the durable database, replaying its journal. */
    void
    attachDb()
    {
        rig.tr->connect(*rig.client, rig.fsId());
        MiniDbOptions db_opts;
        db_opts.journal = journal;
        db_opts.createFresh = false;
        db = std::make_unique<MiniDb>(*rig.tr, rig.core0(),
                                      *rig.client, rig.fsId(), "crash",
                                      db_opts);
    }

    void
    runGeneration()
    {
        uint64_t gen = ++generation;
        for (uint32_t i = 0; i < keys; i++) {
            if (inj->crashed())
                return;
            std::string key = keyName(i);
            std::vector<uint8_t> val = valueFor(gen, i);
            inflight.active = true;
            inflight.key = key;
            auto old = ackd.find(key);
            inflight.oldVal =
                old == ackd.end()
                    ? std::nullopt
                    : std::optional<std::vector<uint8_t>>(old->second);
            inflight.newVal = val;
            db->put(key, val.data(), uint32_t(val.size()));
            if (inj->crashed())
                return; // the ack never reached the application
            ackd[key] = val;
            inflight.active = false;
        }
    }

    std::string
    verify()
    {
        for (const auto &[key, val] : ackd) {
            if (inflight.active && key == inflight.key)
                continue;
            auto got = db->get(key);
            if (!got)
                return "acked key " + key + " missing after recovery";
            if (*got != val)
                return "acked key " + key + " reads back wrong bytes";
        }
        if (inflight.active) {
            auto got = db->get(inflight.key);
            bool old_ok = inflight.oldVal
                              ? (got && *got == *inflight.oldVal)
                              : !got;
            bool new_ok = got && *got == inflight.newVal;
            if (!old_ok && !new_ok) {
                return "in-flight key " + inflight.key +
                       " is neither its old nor its new value";
            }
            // The crash resolved the in-flight put one way or the
            // other; fold the durable outcome into the model.
            if (new_ok)
                ackd[inflight.key] = inflight.newVal;
            else if (inflight.oldVal)
                ackd[inflight.key] = *inflight.oldVal;
            else
                ackd.erase(inflight.key);
            inflight.active = false;
        }
        db->tree().checkInvariants();
        return "";
    }

    /** Distinct keys; each generation updates all of them. */
    static constexpr uint32_t keys = 4;
    JournalMode journal;
    CrashRig rig;
    FaultInjector *inj = nullptr;
    std::unique_ptr<MiniDb> db;
    uint64_t generation = 0;
    std::map<std::string, std::vector<uint8_t>> ackd;
    struct
    {
        bool active = false;
        std::string key;
        std::optional<std::vector<uint8_t>> oldVal;
        std::vector<uint8_t> newVal;
    } inflight;
};

// --------------------------------------------------------------------
// xv6fs: per-file atomicity from the FS log
// --------------------------------------------------------------------

class Xv6FsCrashWorkload : public sim::CrashWorkload
{
  public:
    Xv6FsCrashWorkload(uint32_t files, uint32_t blocks_per_file)
        : fileCount(files),
          payloadBytes(uint64_t(blocks_per_file) * 4096),
          ackedGen(files, 0), fds(files, -1)
    {
        rig.sup->setRecovery("fs", [this] { reopenAll(); });
    }

    void
    run(FaultInjector &inj_) override
    {
        inj = &inj_;
        rig.installInjector(inj_);
        reopenAll();
        // Generation 1 (outside the fault space) gives every file a
        // known, fully-acknowledged content and its final size.
        runGeneration();
        inj->enabled = true;
        runGeneration();
    }

    std::string
    recoverAndVerify(FaultInjector &inj_) override
    {
        (void)inj_;
        rig.restartFs(); // mount() replays the FS log; the recovery
                         // hook re-opens the client's files
        if (inj->crashed())
            return "";
        std::string err = verify();
        if (!err.empty())
            return err;
        runGeneration();
        if (inj->crashed())
            return "";
        return verify();
    }

  private:
    std::string pathOf(uint32_t f)
    {
        return "/f" + std::to_string(f);
    }

    uint8_t genByte(uint64_t gen, uint32_t f)
    {
        return uint8_t(gen * 16 + f);
    }

    void
    reopenAll()
    {
        rig.tr->connect(*rig.client, rig.fsId());
        for (uint32_t f = 0; f < fileCount; f++) {
            fds[f] = FsServer::clientOpen(*rig.tr, rig.core0(),
                                          *rig.client, rig.fsId(),
                                          pathOf(f), true);
            fatal_if(fds[f] < 0, "cannot open workload file");
        }
    }

    void
    runGeneration()
    {
        uint64_t gen = ++generation;
        std::vector<uint8_t> payload(payloadBytes);
        for (uint32_t f = 0; f < fileCount; f++) {
            if (inj->crashed())
                return;
            std::memset(payload.data(), genByte(gen, f),
                        payload.size());
            inflight = {true, f, ackedGen[f], gen};
            int64_t r = FsServer::clientWrite(
                *rig.tr, rig.core0(), *rig.client, rig.fsId(), fds[f],
                0, payload.data(), payload.size());
            if (inj->crashed())
                return;
            panic_if(r != int64_t(payload.size()),
                     "un-crashed file write failed");
            ackedGen[f] = gen;
            inflight.active = false;
        }
    }

    std::string
    verify()
    {
        std::vector<uint8_t> buf(payloadBytes);
        for (uint32_t f = 0; f < fileCount; f++) {
            int64_t r = FsServer::clientRead(
                *rig.tr, rig.core0(), *rig.client, rig.fsId(), fds[f],
                0, buf.data(), buf.size());
            if (r != int64_t(buf.size()))
                return "file " + pathOf(f) + " lost bytes";
            // The whole file must be one generation: the FS log makes
            // multi-block writes all-or-nothing.
            uint8_t first = buf[0];
            for (size_t b = 1; b < buf.size(); b++) {
                if (buf[b] != first)
                    return "file " + pathOf(f) + " is torn mid-write";
            }
            bool in_flight = inflight.active && inflight.file == f;
            bool acked_ok = first == genByte(ackedGen[f], f);
            bool new_ok =
                in_flight && first == genByte(inflight.to, f);
            if (!acked_ok && !new_ok) {
                return "file " + pathOf(f) +
                       " holds an impossible generation";
            }
            if (in_flight) {
                if (new_ok)
                    ackedGen[f] = inflight.to;
                inflight.active = false;
            }
        }
        return "";
    }

    uint32_t fileCount;
    uint64_t payloadBytes;
    CrashRig rig;
    FaultInjector *inj = nullptr;
    uint64_t generation = 0;
    std::vector<uint64_t> ackedGen;
    std::vector<int64_t> fds;
    struct
    {
        bool active = false;
        uint32_t file = 0;
        uint64_t from = 0, to = 0;
    } inflight;
};

// --------------------------------------------------------------------
// Torn pairs: the deliberately unjournaled failing subject
// --------------------------------------------------------------------

class TornPairCrashWorkload : public sim::CrashWorkload
{
  public:
    explicit TornPairCrashWorkload(uint32_t pairs)
        : pairCount(pairs), ackedGen(pairs, 0)
    {
        rig.sup->setRecovery("fs", [this] { attachDb(); });
    }

    void
    run(FaultInjector &inj_) override
    {
        inj = &inj_;
        rig.installInjector(inj_);
        rig.tr->connect(*rig.client, rig.fsId());
        MiniDbOptions db_opts;
        db_opts.journal = JournalMode::None; // crash-unsafe on purpose
        db_opts.createFresh = true;
        db = std::make_unique<MiniDb>(*rig.tr, rig.core0(),
                                      *rig.client, rig.fsId(), "torn",
                                      db_opts);
        // Build every pair outside the fault space; generation-1
        // updates then stay in place (same sizes, no splits), so a
        // crash can tear pair atomicity but never the tree structure.
        runGeneration();
        inj->enabled = true;
        runGeneration();
    }

    std::string
    recoverAndVerify(FaultInjector &inj_) override
    {
        (void)inj_;
        db.reset();
        rig.restartFs();
        if (inj->crashed())
            return "";
        std::string err = verify();
        if (!err.empty())
            return err;
        runGeneration();
        if (inj->crashed())
            return "";
        return verify();
    }

  private:
    std::string sideKey(uint32_t i, int side)
    {
        return (side == 0 ? "a" : "b") + std::to_string(i);
    }

    std::vector<uint8_t>
    valueFor(uint64_t gen, uint32_t i, int side)
    {
        std::vector<uint8_t> val(48);
        std::memcpy(val.data(), &gen, sizeof(gen));
        for (size_t b = sizeof(gen); b < val.size(); b++)
            val[b] = uint8_t(i * 2 + side);
        return val;
    }

    void
    attachDb()
    {
        rig.tr->connect(*rig.client, rig.fsId());
        MiniDbOptions db_opts;
        db_opts.journal = JournalMode::None;
        db_opts.createFresh = false;
        db = std::make_unique<MiniDb>(*rig.tr, rig.core0(),
                                      *rig.client, rig.fsId(), "torn",
                                      db_opts);
    }

    void
    runGeneration()
    {
        uint64_t gen = ++generation;
        for (uint32_t i = 0; i < pairCount; i++) {
            if (inj->crashed())
                return;
            // The application wants the pair updated atomically, but
            // journal mode None provides nothing of the sort.
            inflight = {true, i, ackedGen[i], gen};
            for (int side = 0; side < 2; side++) {
                std::vector<uint8_t> val = valueFor(gen, i, side);
                db->put(sideKey(i, side), val.data(),
                        uint32_t(val.size()));
                if (inj->crashed())
                    return;
            }
            ackedGen[i] = gen;
            inflight.active = false;
        }
    }

    /** The generation a stored value claims (its first 8 bytes). */
    uint64_t
    genOf(const std::optional<std::vector<uint8_t>> &val)
    {
        if (!val || val->size() < sizeof(uint64_t))
            return ~uint64_t(0);
        uint64_t gen = 0;
        std::memcpy(&gen, val->data(), sizeof(gen));
        return gen;
    }

    std::string
    verify()
    {
        for (uint32_t i = 0; i < pairCount; i++) {
            uint64_t ga = genOf(db->get(sideKey(i, 0)));
            uint64_t gb = genOf(db->get(sideKey(i, 1)));
            bool in_flight = inflight.active && inflight.pair == i;
            if (!in_flight) {
                if (ga != ackedGen[i] || gb != ackedGen[i]) {
                    return "acked pair " + std::to_string(i) +
                           " lost its update";
                }
                continue;
            }
            bool both_old =
                ga == inflight.from && gb == inflight.from;
            bool both_new = ga == inflight.to && gb == inflight.to;
            if (!both_old && !both_new) {
                return "pair " + std::to_string(i) +
                       " is torn (a=gen" + std::to_string(ga) +
                       ", b=gen" + std::to_string(gb) + ")";
            }
            if (both_new)
                ackedGen[i] = inflight.to;
            inflight.active = false;
        }
        return "";
    }

    uint32_t pairCount;
    CrashRig rig;
    FaultInjector *inj = nullptr;
    std::unique_ptr<MiniDb> db;
    uint64_t generation = 0;
    std::vector<uint64_t> ackedGen;
    struct
    {
        bool active = false;
        uint32_t pair = 0;
        uint64_t from = 0, to = 0;
    } inflight;
};

} // namespace

sim::CrashWorkloadFactory
makeMiniDbCrashWorkload(JournalMode journal)
{
    return [journal] {
        return std::unique_ptr<sim::CrashWorkload>(
            new MiniDbCrashWorkload(journal));
    };
}

sim::CrashWorkloadFactory
makeXv6FsCrashWorkload(uint32_t files, uint32_t blocks_per_file)
{
    return [files, blocks_per_file] {
        return std::unique_ptr<sim::CrashWorkload>(
            new Xv6FsCrashWorkload(files, blocks_per_file));
    };
}

sim::CrashWorkloadFactory
makeTornPairCrashWorkload(uint32_t pairs)
{
    return [pairs] {
        return std::unique_ptr<sim::CrashWorkload>(
            new TornPairCrashWorkload(pairs));
    };
}

} // namespace xpc::apps
