/**
 * @file
 * Deadline propagation, admission control and circuit breaking
 * (DESIGN.md §4e): per-request cycle deadlines enforced on all three
 * transports, the paper-faithful cleanup on the XPC path (link-stack
 * unwind + relay-seg revocation so a stalled server can never write
 * a reclaimed segment), deterministic load shedding, the
 * closed -> open -> half-open -> closed breaker state machine, and
 * the one door through which admission and telemetry guard a service
 * (services/service.hh).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/breaker.hh"
#include "core/system.hh"
#include "kernel/sel4.hh"
#include "kernel/zircon.hh"
#include "services/admission.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/kv.hh"
#include "services/name_server.hh"
#include "services/proto.hh"
#include "services/supervisor.hh"
#include "services/telemetry.hh"
#include "services/web.hh"
#include "sim/fault_injector.hh"
#include "sim/request.hh"
#include "sim/timeseries.hh"

namespace xpc {
namespace {

constexpr uint64_t kCacheGet = uint64_t(services::proto::CacheOp::Get);

// --------------------------------------------------------------------
// Deadline scopes
// --------------------------------------------------------------------

TEST(DeadlineScope, NestedScopesOnlyTighten)
{
    req::RequestContext ctx;
    EXPECT_EQ(ctx.currentDeadline(), 0u);
    {
        req::DeadlineScope outer(ctx, 100);
        EXPECT_EQ(ctx.currentDeadline(), 100u);
        {
            // A looser nested budget inherits the tighter outer one.
            req::DeadlineScope inner(ctx, 200);
            EXPECT_EQ(ctx.currentDeadline(), 100u);
        }
        {
            // A tighter nested budget wins.
            req::DeadlineScope inner(ctx, 50);
            EXPECT_EQ(ctx.currentDeadline(), 50u);
        }
        {
            // "No own budget" inherits the outer one.
            req::DeadlineScope inner(ctx, 0);
            EXPECT_EQ(ctx.currentDeadline(), 100u);
        }
        EXPECT_EQ(ctx.currentDeadline(), 100u);
    }
    EXPECT_EQ(ctx.currentDeadline(), 0u);
}

// --------------------------------------------------------------------
// Deadline expiry, one test per transport
// --------------------------------------------------------------------

TEST(Deadline, ExpiryUnwindsAndRevokesOnXpc)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.deadlineCycles = Cycles(10000);
    core::System sys(opts);
    kernel::Thread &server = sys.spawn("slow-server");
    kernel::Thread &client = sys.spawn("client");
    core::XpcRuntime &rt = sys.runtime();
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            if (call.opcode() == 1)
                call.core().spend(Cycles(50000)); // blows the budget
            call.setReplyLen(0);
        },
        2);
    sys.manager().grantXcallCap(server, client, id);
    hw::Core &core = sys.core(0);
    core::RelaySegHandle seg = rt.allocRelayMem(core, client, 4096);

    auto out = rt.call(core, client, id, 1, 0);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::DeadlineExpired);
    EXPECT_EQ(rt.deadlineExpired.value(), 1u);
    // Paper 6.1 + 4.4 cleanup: the link stack was unwound and the
    // relay seg the expired call held was revoked, so a stalled
    // server can never write a reclaimed segment.
    EXPECT_EQ(core.csrs.linkTop, 0u);
    EXPECT_EQ(rt.deadlineRevocations.value(), 1u);
    EXPECT_FALSE(sys.manager().segById(seg.segId).has_value());
    EXPECT_EQ(core.csrs.segId, 0u);

    // A fresh seg and a fast call work fine afterwards.
    rt.allocRelayMem(core, client, 4096);
    auto ok = rt.call(core, client, id, 0, 0);
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(rt.deadlineExpired.value(), 1u);
}

TEST(Deadline, ExpiryAbortsSel4Call)
{
    hw::Machine machine(hw::rocketU500(), 128 << 20);
    kernel::Sel4Kernel kern(machine);
    kern.callDeadline = Cycles(10000);
    kernel::Process &cp = kern.createProcess("client");
    kernel::Process &sp = kern.createProcess("server");
    kernel::Thread &client = kern.createThread(cp, 0);
    kernel::Thread &server = kern.createThread(sp, 0);
    kern.setCurrent(0, &client);
    uint64_t ep =
        kern.createPort(server, [](kernel::ServerCall &call) {
            if (call.opcode() == 1)
                call.core().spend(Cycles(50000));
        });
    kern.grantPort(client, ep);
    VAddr req = cp.alloc(4096), reply = cp.alloc(4096);

    auto out = kern.callPort(machine.core(0), client, ep, 1, req, 16,
                             reply, 4096);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::DeadlineExpired);
    EXPECT_EQ(kern.deadlineExpired.value(), 1u);

    auto ok = kern.callPort(machine.core(0), client, ep, 0, req, 16,
                            reply, 4096);
    EXPECT_TRUE(ok.ok);
}

TEST(Deadline, ExpiryAbortsZirconCall)
{
    hw::Machine machine(hw::rocketU500(), 128 << 20);
    kernel::ZirconKernel kern(machine);
    kern.callDeadline = Cycles(20000);
    kernel::Process &cp = kern.createProcess("client");
    kernel::Process &sp = kern.createProcess("server");
    kernel::Thread &client = kern.createThread(cp, 0);
    kernel::Thread &server = kern.createThread(sp, 0);
    kern.setCurrent(0, &client);
    uint64_t ch =
        kern.createPort(server, [](kernel::ServerCall &call) {
            if (call.opcode() == 1)
                call.core().spend(Cycles(80000));
        });
    VAddr req = cp.alloc(4096), reply = cp.alloc(4096);

    auto out = kern.callPort(machine.core(0), client, ch, 1, req, 16,
                             reply, 4096);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::DeadlineExpired);
    EXPECT_EQ(kern.deadlineExpired.value(), 1u);

    auto ok = kern.callPort(machine.core(0), client, ch, 0, req, 16,
                            reply, 4096);
    EXPECT_TRUE(ok.ok);
}

// --------------------------------------------------------------------
// A stalled server's late write faults after revocation
// --------------------------------------------------------------------

TEST(Deadline, RevocationBlocksLateWriteFromStalledServer)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.deadlineCycles = Cycles(10000);
    core::System sys(opts);
    kernel::Thread &server = sys.spawn("stalled");
    kernel::Thread &client = sys.spawn("client");
    core::XpcRuntime &rt = sys.runtime();
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            static const char late[] = "late";
            call.writeMsg(0, late, sizeof(late));
            call.setReplyLen(sizeof(late));
        },
        2);
    sys.manager().grantXcallCap(server, client, id);
    hw::Core &core = sys.core(0);
    core::RelaySegHandle seg = rt.allocRelayMem(core, client, 4096);

    // Schedule a stall on the first call: the handler never gets to
    // run its reply writes in time; the deadline machinery revokes
    // the relay seg while the server notionally still holds it.
    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.callSeq = 1;
    ev.op = FaultOp::StallServer;
    ev.phase = FaultPhase::InHandler;
    plan.events.push_back(ev);
    FaultInjector inj(plan);
    sys.machine().setFaultInjector(&inj);
    inj.enabled = true;

    auto out = rt.call(core, client, id, 0, 0);
    inj.enabled = false;
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.status, kernel::CallStatus::DeadlineExpired);
    EXPECT_EQ(inj.firedCount(FaultOp::StallServer), 1u);
    // The seg was revoked (4.4) and the stalled server's write path
    // through its scrubbed seg-reg faulted instead of landing in
    // reclaimed memory.
    EXPECT_EQ(rt.deadlineRevocations.value(), 1u);
    EXPECT_GE(rt.lateWritesBlocked.value(), 1u);
    EXPECT_FALSE(sys.manager().segById(seg.segId).has_value());
    EXPECT_EQ(core.csrs.linkTop, 0u);
}

// --------------------------------------------------------------------
// Stall / slow fault kinds
// --------------------------------------------------------------------

TEST(FaultKinds, StallAndSlowPlansAreSeededAndBounded)
{
    uint32_t mask = (1u << uint32_t(FaultOp::StallServer)) |
                    (1u << uint32_t(FaultOp::SlowServer));
    FaultPlan a = FaultPlan::generate(7, 40, 400, mask);
    FaultPlan b = FaultPlan::generate(7, 40, 400, mask);
    ASSERT_EQ(a.events.size(), 40u);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); i++) {
        EXPECT_TRUE(a.events[i].op == FaultOp::StallServer ||
                    a.events[i].op == FaultOp::SlowServer);
        EXPECT_EQ(a.events[i].phase, FaultPhase::InHandler);
        if (a.events[i].op == FaultOp::SlowServer) {
            EXPECT_GE(a.events[i].arg, 2u);
            EXPECT_LE(a.events[i].arg, 8u);
        }
        EXPECT_EQ(a.events[i].op, b.events[i].op);
        EXPECT_EQ(a.events[i].callSeq, b.events[i].callSeq);
        EXPECT_EQ(a.events[i].arg, b.events[i].arg);
    }
    EXPECT_STREQ(faultOpName(FaultOp::StallServer), "stall-server");
    EXPECT_STREQ(faultOpName(FaultOp::SlowServer), "slow-server");
}

TEST(FaultKinds, SlowServerMultipliesHandlerCost)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    core::XpcRuntime &rt = sys.runtime();
    uint64_t id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            call.core().spend(Cycles(2000));
            call.setReplyLen(0);
        },
        2);
    sys.manager().grantXcallCap(server, client, id);
    hw::Core &core = sys.core(0);
    rt.allocRelayMem(core, client, 4096);

    // Slow the first call down 4x; the second runs clean.
    FaultPlan plan;
    plan.seed = 1;
    FaultEvent ev;
    ev.callSeq = 1;
    ev.op = FaultOp::SlowServer;
    ev.phase = FaultPhase::InHandler;
    ev.arg = 4;
    plan.events.push_back(ev);
    FaultInjector inj(plan);
    sys.machine().setFaultInjector(&inj);
    inj.enabled = true;
    auto slow = rt.call(core, client, id, 0, 0);
    auto fast = rt.call(core, client, id, 0, 0);
    inj.enabled = false;

    ASSERT_TRUE(slow.ok);
    ASSERT_TRUE(fast.ok);
    EXPECT_EQ(inj.firedCount(FaultOp::SlowServer), 1u);
    // (4 - 1) x 2000 extra handler cycles, minus cache-warmth noise.
    EXPECT_GT(slow.roundTrip.value(),
              fast.roundTrip.value() + 5000u);
}

// --------------------------------------------------------------------
// Admission control
// --------------------------------------------------------------------

TEST(Admission, ShedsAtTheHighWatermarkAndDrainsBack)
{
    services::AdmissionOptions opts;
    opts.highWatermark = 3;
    opts.drainCycles = Cycles(1000);
    opts.clientShare = 0;
    services::AdmissionController adm("t", opts);

    // Three rapid requests fill the queue; the fourth is shed.
    EXPECT_TRUE(adm.admit(Cycles(10), 0));
    EXPECT_TRUE(adm.admit(Cycles(20), 0));
    EXPECT_TRUE(adm.admit(Cycles(30), 0));
    EXPECT_FALSE(adm.admit(Cycles(40), 0));
    EXPECT_EQ(adm.shed.value(), 1u);
    EXPECT_EQ(adm.backlogAt(Cycles(40)), 3u);

    // Two drain periods later there is room again.
    EXPECT_EQ(adm.backlogAt(Cycles(2040)), 1u);
    EXPECT_TRUE(adm.admit(Cycles(2040), 0));
    EXPECT_EQ(adm.admitted.value(), 4u);
}

TEST(Admission, FairShareShedsTheGreedyClientOnly)
{
    services::AdmissionOptions opts;
    opts.highWatermark = 100; // global queue never fills
    opts.drainCycles = Cycles(1000000);
    opts.clientShare = 2;
    services::AdmissionController adm("t", opts);

    EXPECT_TRUE(adm.admit(Cycles(1), 7));
    EXPECT_TRUE(adm.admit(Cycles(2), 7));
    // Client 7 owns its fair share; client 9 still gets in.
    EXPECT_FALSE(adm.admit(Cycles(3), 7));
    EXPECT_TRUE(adm.admit(Cycles(4), 9));
    EXPECT_EQ(adm.shedFairShare.value(), 1u);
    EXPECT_EQ(adm.shed.value(), 1u);
}

TEST(Admission, IsDeterministic)
{
    for (int run = 0; run < 2; run++) {
        services::AdmissionOptions opts;
        opts.highWatermark = 2;
        opts.drainCycles = Cycles(500);
        services::AdmissionController adm("t", opts);
        std::vector<bool> decisions;
        for (uint64_t t = 0; t < 40; t++)
            decisions.push_back(adm.admit(Cycles(t * 100), 0));
        static std::vector<bool> first;
        if (run == 0)
            first = decisions;
        else
            EXPECT_EQ(first, decisions);
    }
}

// --------------------------------------------------------------------
// Circuit breaker
// --------------------------------------------------------------------

TEST(Breaker, TripsHalfOpensAndCloses)
{
    core::BreakerOptions opts;
    opts.enabled = true;
    opts.failureThreshold = 3;
    opts.cooldownCycles = Cycles(1000);
    core::CircuitBreaker brk(opts);

    // Closed until three consecutive failures.
    EXPECT_TRUE(brk.allow(Cycles(0)));
    brk.onFailure(Cycles(10));
    brk.onFailure(Cycles(20));
    EXPECT_EQ(brk.state(Cycles(20)), core::CircuitBreaker::State::Closed);
    brk.onFailure(Cycles(30));
    EXPECT_EQ(brk.state(Cycles(30)), core::CircuitBreaker::State::Open);
    EXPECT_EQ(brk.trips(), 1u);

    // Open: short-circuit inside the cooldown window.
    EXPECT_FALSE(brk.allow(Cycles(500)));
    EXPECT_EQ(brk.shortCircuits(), 1u);

    // After the cooldown exactly one probe passes...
    EXPECT_EQ(brk.state(Cycles(1030)),
              core::CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(brk.allow(Cycles(1030)));
    EXPECT_FALSE(brk.allow(Cycles(1040))); // probe in flight
    EXPECT_EQ(brk.probes(), 1u);

    // ...and its success closes the breaker.
    brk.onSuccess(Cycles(1100));
    EXPECT_EQ(brk.state(Cycles(1100)),
              core::CircuitBreaker::State::Closed);
    EXPECT_TRUE(brk.allow(Cycles(1100)));
}

TEST(Breaker, FailedProbeReopensWithFreshCooldown)
{
    core::BreakerOptions opts;
    opts.enabled = true;
    opts.failureThreshold = 1;
    opts.cooldownCycles = Cycles(1000);
    core::CircuitBreaker brk(opts);

    brk.onFailure(Cycles(0)); // trip immediately
    EXPECT_EQ(brk.state(Cycles(0)), core::CircuitBreaker::State::Open);
    EXPECT_TRUE(brk.allow(Cycles(1000)));  // the probe
    brk.onFailure(Cycles(1010));           // probe fails
    EXPECT_EQ(brk.state(Cycles(1010)), core::CircuitBreaker::State::Open);
    EXPECT_EQ(brk.trips(), 2u);
    // The cooldown restarted at the probe failure.
    EXPECT_FALSE(brk.allow(Cycles(1500)));
    EXPECT_TRUE(brk.allow(Cycles(2010)));
    brk.onSuccess(Cycles(2020));
    EXPECT_EQ(brk.state(Cycles(2020)),
              core::CircuitBreaker::State::Closed);

    EXPECT_STREQ(core::breakerStateName(
                     core::CircuitBreaker::State::HalfOpen),
                 "half-open");
}

// --------------------------------------------------------------------
// The supervisor's quarantine loop end to end
// --------------------------------------------------------------------

TEST(Breaker, SupervisorQuarantinesAnOverloadedService)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &ns_t = sys.spawn("nameserver");
    services::NameServer ns(tr, ns_t);
    services::Supervisor sup(tr, ns);
    sup.breakerOpts.enabled = true;
    sup.breakerOpts.failureThreshold = 3;
    sup.breakerOpts.cooldownCycles = Cycles(50000);
    kernel::Thread &client = sys.spawn("client");

    kernel::Thread &cache_t = sys.spawn("cache");
    services::FileCacheServer cache(tr, cache_t);
    std::vector<uint8_t> page(64, 'x');
    cache.preload("/a", page);
    // An admission controller that never drains: after one admit,
    // every further request is shed.
    services::AdmissionOptions aopts;
    aopts.highWatermark = 1;
    aopts.drainCycles = Cycles(1000000000);
    aopts.clientShare = 0;
    services::AdmissionController adm("cache", aopts);
    cache.setAdmission(&adm);
    ns.bind("cache", cache.id());
    sup.supervise("cache", cache_t, cache.id(),
                  [&](kernel::Thread *&) { return cache.id(); });

    hw::Core &core = sys.core(0);
    std::string path = "/a";
    path.push_back('\0');
    uint8_t reply[256];

    // First call is admitted and succeeds.
    EXPECT_GE(sup.callWithRetry(core, client, "cache", kCacheGet, path.data(),
                                path.size(), reply, sizeof(reply)),
              0);

    // Second call: every attempt is shed, the breaker trips after 3
    // consecutive failures and the tail attempts short-circuit.
    EXPECT_LT(sup.callWithRetry(core, client, "cache", kCacheGet, path.data(),
                                path.size(), reply, sizeof(reply)),
              0);
    EXPECT_EQ(sup.lastStatus, core::TransportStatus::BreakerOpen);
    EXPECT_EQ(sup.breakerTrips.value(), 1u);
    EXPECT_GT(sup.breakerRejected.value(), 0u);
    EXPECT_EQ(sup.breakerFor("cache").state(core.now()),
              core::CircuitBreaker::State::Open);

    // While open and inside the cooldown, calls never even touch the
    // transport.
    uint64_t admitted = adm.admitted.value();
    uint64_t shed = adm.shed.value();
    EXPECT_LT(sup.callWithRetry(core, client, "cache", kCacheGet, path.data(),
                                path.size(), reply, sizeof(reply),
                                {.maxAttempts = 1}),
              0);
    EXPECT_EQ(sup.lastStatus, core::TransportStatus::BreakerOpen);
    EXPECT_EQ(adm.admitted.value(), admitted);
    EXPECT_EQ(adm.shed.value(), shed);

    // After the cooldown (and with the overload cleared) the
    // half-open probe succeeds and the breaker closes.
    core.spend(Cycles(60000));
    cache.setAdmission(nullptr);
    EXPECT_GE(sup.callWithRetry(core, client, "cache", kCacheGet, path.data(),
                                path.size(), reply, sizeof(reply)),
              0);
    EXPECT_EQ(sup.breakerFor("cache").state(core.now()),
              core::CircuitBreaker::State::Closed);
}

TEST(Breaker, SupervisorRestartResetsBreakerAndAdmission)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &ns_t = sys.spawn("nameserver");
    services::NameServer ns(tr, ns_t);
    services::Supervisor sup(tr, ns);
    sup.breakerOpts.enabled = true;
    sup.breakerOpts.failureThreshold = 3;
    // A cooldown no test-scale clock advance can outlast: without the
    // restart-time reset the breaker would stay open forever here.
    sup.breakerOpts.cooldownCycles = Cycles(1000000000);
    sup.retryBudgetOpts.enabled = true;
    kernel::Thread &client = sys.spawn("client");

    // An admission controller that never drains: one admit, then
    // every further request is shed until the buckets are reset.
    services::AdmissionOptions aopts;
    aopts.highWatermark = 1;
    aopts.drainCycles = Cycles(1000000000);
    aopts.clientShare = 0;
    services::AdmissionController adm("cache", aopts);

    std::vector<std::unique_ptr<services::FileCacheServer>> caches;
    std::vector<uint8_t> page(64, 'x');
    auto makeCache = [&](kernel::Thread *&t) {
        t = &sys.spawn("cache");
        caches.push_back(
            std::make_unique<services::FileCacheServer>(tr, *t));
        caches.back()->preload("/a", page);
        caches.back()->setAdmission(&adm);
        return caches.back()->id();
    };
    kernel::Thread *cache_t = nullptr;
    core::ServiceId id = makeCache(cache_t);
    ns.bind("cache", id);
    sup.supervise("cache", *cache_t, id,
                  [&](kernel::Thread *&srv) { return makeCache(srv); });
    sup.setAdmission("cache", &adm);

    hw::Core &core = sys.core(0);
    std::string path = "/a";
    path.push_back('\0');
    uint8_t reply[256];

    // Admit once, then overload until the breaker trips and latches.
    EXPECT_GE(sup.callWithRetry(core, client, "cache", kCacheGet,
                                path.data(), path.size(), reply,
                                sizeof(reply)),
              0);
    EXPECT_LT(sup.callWithRetry(core, client, "cache", kCacheGet,
                                path.data(), path.size(), reply,
                                sizeof(reply)),
              0);
    EXPECT_EQ(sup.breakerFor("cache").state(core.now()),
              core::CircuitBreaker::State::Open);
    EXPECT_GT(adm.backlogAt(core.now()), 0u);
    // The failed attempts above spent retry-budget tokens.
    const uint64_t full_tokens =
        uint64_t(sup.retryBudgetOpts.initialTokens);
    EXPECT_LT(sup.budgetFor("cache").tokens(), full_tokens);
    EXPECT_GT(sup.budgetFor("cache").granted(), 0u);

    // The overloaded instance dies. heal() restarts it and must wipe
    // the quarantine with it: the failures that tripped the breaker,
    // the backlog that tripped admission, and the retries that
    // drained the budget all died with the process.
    sys.manager().onProcessExit(*cache_t->process());
    EXPECT_EQ(sup.heal(), 1u);
    EXPECT_EQ(sup.breakerFor("cache").state(core.now()),
              core::CircuitBreaker::State::Closed);
    EXPECT_TRUE(sup.breakerFor("cache").allow(core.now()));
    EXPECT_EQ(adm.backlogAt(core.now()), 0u);
    EXPECT_EQ(sup.budgetFor("cache").tokens(), full_tokens);

    // The very first call to the fresh instance goes straight
    // through - no cooldown wait, no stale shedding. A single
    // attempt proves nothing is being short-circuited.
    EXPECT_GE(sup.callWithRetry(core, client, "cache", kCacheGet,
                                path.data(), path.size(), reply,
                                sizeof(reply), {.maxAttempts = 1}),
              0);
    EXPECT_EQ(sup.lastStatus, core::TransportStatus::Ok);
    // The breaker's trip history survives the reset (it is history,
    // not state).
    EXPECT_EQ(sup.breakerFor("cache").trips(), 1u);
}

TEST(Breaker, UnsupervisedNameKeepsItsOwnRecord)
{
    // callWithRetry gives a breaker, a retry budget and an offense
    // record to any name it reaches, supervised or not. A name that
    // was never supervised has nothing to restart: heal() must leave
    // its record alone, it is never down, and its id is whatever the
    // transport resolves.
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &ns_t = sys.spawn("nameserver");
    services::NameServer ns(tr, ns_t);
    services::Supervisor sup(tr, ns);
    sup.breakerOpts.enabled = true;
    sup.breakerOpts.failureThreshold = 2;
    sup.breakerOpts.cooldownCycles = Cycles(1000000000);
    sup.retryBudgetOpts.enabled = true;
    kernel::Thread &client = sys.spawn("client");
    kernel::Thread &kv_t = sys.spawn("kv");
    services::KvServer kv(tr, kv_t);

    // A 4-byte get is too short for its key: both attempts come back
    // IntegrityViolation, which trips the two-failure breaker.
    hw::Core &core = sys.core(0);
    uint32_t short_key = 7;
    EXPECT_LT(sup.callWithRetry(core, client, "kv", services::KvServer::opGet,
                                &short_key, sizeof(short_key), nullptr, 0,
                                {.maxAttempts = 2}),
              0);
    EXPECT_EQ(sup.lastStatus, core::TransportStatus::IntegrityViolation);
    EXPECT_EQ(sup.integrityOffenseCount("kv"), 2u);
    EXPECT_EQ(sup.breakerFor("kv").state(core.now()),
              core::CircuitBreaker::State::Open);
    const uint64_t tokens = sup.budgetFor("kv").tokens();
    EXPECT_LT(tokens, uint64_t(sup.retryBudgetOpts.initialTokens));

    EXPECT_EQ(sup.heal(), 0u);
    EXPECT_EQ(sup.heal(kernel::defaultTenant), 0u);
    EXPECT_EQ(sup.restarts.value(), 0u);
    EXPECT_EQ(sup.integrityOffenseCount("kv"), 2u);
    EXPECT_EQ(sup.breakerFor("kv").state(core.now()),
              core::CircuitBreaker::State::Open);
    EXPECT_EQ(sup.budgetFor("kv").tokens(), tokens);
    EXPECT_FALSE(sup.isDown("kv"));
    EXPECT_EQ(sup.currentId("kv"), kv.id());
    EXPECT_EQ(sup.currentId("kv"), tr.lookup("kv", kernel::defaultTenant));
}

// --------------------------------------------------------------------
// Jittered backoff determinism
// --------------------------------------------------------------------

TEST(Backoff, JitterIsSeededAndDeterministic)
{
    // Two identical systems, same supervisor seed: the jittered
    // backoff must burn exactly the same number of cycles.
    uint64_t spent[2] = {};
    for (int run = 0; run < 2; run++) {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        core::System sys(opts);
        core::Transport &tr = sys.transport();
        kernel::Thread &ns_t = sys.spawn("nameserver");
        services::NameServer ns(tr, ns_t);
        services::Supervisor sup(tr, ns);
        kernel::Thread &client = sys.spawn("client");
        kernel::Thread &cache_t = sys.spawn("cache");
        services::FileCacheServer cache(tr, cache_t);
        services::AdmissionOptions aopts;
        aopts.highWatermark = 1;
        aopts.drainCycles = Cycles(1000000000);
        services::AdmissionController adm("cache", aopts);
        cache.setAdmission(&adm);
        ns.bind("cache", cache.id());
        sup.supervise("cache", cache_t, cache.id(),
                      [&](kernel::Thread *&) { return cache.id(); });

        hw::Core &core = sys.core(0);
        std::string path = "/a";
        path.push_back('\0');
        uint8_t reply[64];
        sup.callWithRetry(core, client, "cache", kCacheGet, path.data(),
                          path.size(), reply, sizeof(reply));
        uint64_t before = core.now().value();
        sup.callWithRetry(core, client, "cache", kCacheGet, path.data(),
                          path.size(), reply, sizeof(reply));
        spent[run] = core.now().value() - before;
    }
    EXPECT_EQ(spent[0], spent[1]);
    EXPECT_GT(spent[0], 0u);
}

// --------------------------------------------------------------------
// The door: admission and telemetry in front of every guarded service
// --------------------------------------------------------------------

/** The four guarded services on one System: kv, fs over a ramdisk,
 *  and httpd in front of the file cache and the AES server. */
struct GuardedMesh
{
    static constexpr uint64_t area = 8192;

    explicit GuardedMesh(core::SystemFlavor flavor)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        sys = std::make_unique<core::System>(opts);
        core::Transport &tr = sys->transport();
        client = &sys->spawn("client");
        kv = std::make_unique<services::KvServer>(tr, sys->spawn("kv"));
        kernel::Thread &dev_t = sys->spawn("blockdev");
        dev = std::make_unique<services::BlockDeviceServer>(tr, dev_t, 2048);
        kernel::Thread &fs_t = sys->spawn("fs");
        tr.connect(fs_t, dev->id());
        fs = std::make_unique<services::FsServer>(tr, fs_t, dev->id(), 2048);
        cache = std::make_unique<services::FileCacheServer>(
            tr, sys->spawn("cache"));
        cache->preload("/a", std::vector<uint8_t>(64, 'x'));
        static const uint8_t key[services::crypto::Aes128::keyBytes] = {
            1, 2, 3};
        crypto = std::make_unique<services::CryptoServer>(
            tr, sys->spawn("crypto"), key);
        kernel::Thread &http_t = sys->spawn("httpd");
        tr.connect(http_t, cache->id());
        tr.connect(http_t, crypto->id());
        http = std::make_unique<services::HttpServer>(
            tr, http_t, cache->id(), crypto->id(), true, 1024);
        for (core::ServiceId svc :
             {kv->id(), fs->id(), cache->id(), http->id()})
            tr.connect(*client, svc);
        tr.requestArea(sys->core(0), *client, area);
    }

    /** Stage @p req at offset 0, call @p svc, and log the call's
     *  cycles to @p log. */
    core::CallResult
    call(core::ServiceId svc, uint64_t opcode, const std::vector<uint8_t> &req,
         std::ostream &log)
    {
        hw::Core &core = sys->core(0);
        core::Transport &tr = sys->transport();
        EXPECT_TRUE(tr.clientWrite(core, *client, 0, req.data(), req.size()));
        core::CallResult r = tr.call(core, *client, svc, opcode, req.size(),
                                     area);
        log << r.oneWay.value() << " " << r.roundTrip.value() << " "
            << r.handlerCycles.value() << "\n";
        return r;
    }

    std::unique_ptr<core::System> sys;
    kernel::Thread *client = nullptr;
    std::unique_ptr<services::KvServer> kv;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fs;
    std::unique_ptr<services::FileCacheServer> cache;
    std::unique_ptr<services::CryptoServer> crypto;
    std::unique_ptr<services::HttpServer> http;
};

/** An FsMsg request: the header, then @p payload at fsDataOffset. */
std::vector<uint8_t>
fsRequest(const services::proto::FsMsg &msg, const void *payload,
          uint64_t len)
{
    std::vector<uint8_t> req(services::proto::fsDataOffset + len);
    services::proto::packInto(req.data(), msg);
    if (len > 0)
        std::memcpy(req.data() + services::proto::fsDataOffset, payload, len);
    return req;
}

std::string
doorFlavorName(const ::testing::TestParamInfo<core::SystemFlavor> &info)
{
    std::string n = core::systemFlavorName(info.param);
    for (auto &c : n)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

class Door : public ::testing::TestWithParam<core::SystemFlavor>
{
};

TEST_P(Door, EveryDoorSheds)
{
    // A controller whose watermark is 0 refuses every request. Each
    // of the four services must answer Overloaded with an empty reply
    // from its door: the handler never runs (its own request counter
    // stays 0), and the telemetry counts one shed and no service time.
    GuardedMesh mesh(GetParam());
    struct Case
    {
        const char *name;
        services::Service &svc;
        uint64_t opcode;
        std::vector<uint8_t> req;
        const Counter &ran;
    };
    std::vector<uint8_t> path = {'/', 'a', 0};
    Case cases[] = {
        {"kv", *mesh.kv, services::KvServer::opGet, {1, 2, 3, 4},
         mesh.kv->shortRequests},
        {"fs", *mesh.fs, uint64_t(services::proto::FsOp::Open), {1, 2, 3, 4},
         mesh.fs->malformedRequests},
        {"cache", *mesh.cache, kCacheGet, path, mesh.cache->gets},
        {"http", *mesh.http, uint64_t(services::proto::HttpOp::Request),
         {1, 2, 3, 4}, mesh.http->requests},
    };
    services::AdmissionOptions refuse;
    refuse.highWatermark = 0;
    for (Case &c : cases) {
        SCOPED_TRACE(c.name);
        services::AdmissionController adm(c.name, refuse);
        services::ServiceTelemetry tel(c.name);
        c.svc.setAdmission(&adm);
        c.svc.setTelemetry(&tel);
        std::ostringstream log;
        core::CallResult r = mesh.call(c.svc.id(), c.opcode, c.req, log);
        c.svc.setAdmission(nullptr);
        c.svc.setTelemetry(nullptr);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.status, core::TransportStatus::Overloaded);
        EXPECT_EQ(r.replyLen, 0u);
        EXPECT_EQ(adm.shed.value(), 1u);
        EXPECT_EQ(adm.admitted.value(), 0u);
        EXPECT_EQ(tel.shedCount.value(), 1u);
        EXPECT_EQ(tel.handled.value(), 0u);
        EXPECT_EQ(tel.serviceCycles.count(), 0u);
        EXPECT_EQ(c.ran.value(), 0u);
    }
}

/**
 * A fixed kv put/get and fs open/write/read sequence on @p flavor.
 * With @p idle_door, kv and fs run behind a controller whose
 * watermark no backlog reaches and a telemetry block feeding a
 * TimeSeries. @return each call's oneWay, roundTrip and
 * handlerCycles, then the system's stat dump.
 */
std::string
doorRun(core::SystemFlavor flavor, bool idle_door)
{
    GuardedMesh mesh(flavor);
    services::AdmissionOptions idle;
    idle.highWatermark = 1000000;
    idle.clientShare = 1000000;
    services::AdmissionController adm_kv("kv", idle);
    services::AdmissionController adm_fs("fs", idle);
    services::ServiceTelemetry tel_kv("kv");
    services::ServiceTelemetry tel_fs("fs");
    TimeSeries series(Cycles(1000));
    tel_kv.attachSeries(&series);
    tel_fs.attachSeries(&series);
    if (idle_door) {
        mesh.kv->setAdmission(&adm_kv);
        mesh.kv->setTelemetry(&tel_kv);
        mesh.fs->setAdmission(&adm_fs);
        mesh.fs->setTelemetry(&tel_fs);
    }

    using services::proto::FsMsg;
    using services::proto::FsOp;
    std::ostringstream os;
    const uint64_t key = 42;
    std::vector<uint8_t> put(8 + services::KvServer::valueBytes);
    std::memcpy(put.data(), &key, 8);
    auto val = services::KvServer::valueFor(key);
    std::memcpy(put.data() + 8, val.data(), val.size());
    EXPECT_TRUE(
        mesh.call(mesh.kv->id(), services::KvServer::opPut, put, os).ok);
    std::vector<uint8_t> get(put.begin(), put.begin() + 8);
    core::CallResult r =
        mesh.call(mesh.kv->id(), services::KvServer::opGet, get, os);
    EXPECT_EQ(r.replyLen, services::KvServer::valueBytes);

    const std::string file = "/door";
    FsMsg open;
    open.a = services::proto::fsOpenCreate;
    open.c = int64_t(file.size());
    EXPECT_TRUE(mesh.call(mesh.fs->id(), uint64_t(FsOp::Open),
                          fsRequest(open, file.data(), file.size()), os)
                    .ok);
    uint8_t reply_raw[sizeof(FsMsg)];
    mesh.sys->transport().clientRead(mesh.sys->core(0), *mesh.client, 0,
                                     reply_raw, sizeof(reply_raw));
    const int64_t fd = services::proto::unpackFrom<FsMsg>(reply_raw).a;
    EXPECT_GE(fd, 0);
    std::vector<uint8_t> data(1024, 0xd5);
    FsMsg io;
    io.a = fd;
    io.c = int64_t(data.size());
    EXPECT_TRUE(mesh.call(mesh.fs->id(), uint64_t(FsOp::Write),
                          fsRequest(io, data.data(), data.size()), os)
                    .ok);
    r = mesh.call(mesh.fs->id(), uint64_t(FsOp::Read),
                  fsRequest(io, nullptr, 0), os);
    EXPECT_EQ(r.replyLen, services::proto::fsDataOffset + data.size());
    mesh.sys->stats().dumpJson(os);

    if (idle_door) {
        // The idle door admitted and timed every call, and shed none.
        for (const services::AdmissionController *adm : {&adm_kv, &adm_fs}) {
            EXPECT_EQ(adm->shed.value(), 0u);
            EXPECT_EQ(adm->shedFairShare.value(), 0u);
            EXPECT_EQ(adm->shedTenantShare.value(), 0u);
        }
        EXPECT_EQ(adm_kv.admitted.value(), 2u);
        EXPECT_EQ(adm_fs.admitted.value(), 3u);
        EXPECT_EQ(tel_kv.handled.value(), 2u);
        EXPECT_EQ(tel_fs.handled.value(), 3u);
        EXPECT_EQ(tel_kv.shedCount.value() + tel_fs.shedCount.value(), 0u);
        EXPECT_EQ(tel_fs.serviceCycles.count(), 3u);
    }
    return os.str();
}

TEST_P(Door, IdleDoorChangesNothing)
{
    // Admission and telemetry observe; they never spend a cycle. An
    // attached but idle door must leave every call's cycles and the
    // whole stat dump as they are without one.
    EXPECT_EQ(doorRun(GetParam(), true), doorRun(GetParam(), false));
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, Door,
    ::testing::Values(core::SystemFlavor::Sel4TwoCopy,
                      core::SystemFlavor::Sel4OneCopy,
                      core::SystemFlavor::Sel4Xpc, core::SystemFlavor::Zircon,
                      core::SystemFlavor::ZirconXpc),
    doorFlavorName);

} // namespace
} // namespace xpc
