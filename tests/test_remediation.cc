/**
 * @file
 * Closed-loop overload remediation (DESIGN.md §4j): per-(tenant,
 * service) retry budgets with typed fail-fast exhaustion, the AIMD
 * adaptive admission watermark, the criticality-tiered brownout
 * ladder (sheddable sheds first, critical last, breaker probes run
 * at critical), and the demand requirement on SLO recovery-time
 * scans that keeps a drained-out queue from reading as "recovered".
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/tenant_rig.hh"
#include "core/breaker.hh"
#include "core/system.hh"
#include "services/admission.hh"
#include "services/name_server.hh"
#include "services/proto.hh"
#include "services/retry_budget.hh"
#include "services/supervisor.hh"
#include "services/web.hh"
#include "sim/request.hh"
#include "sim/slo.hh"

namespace xpc {
namespace {

constexpr uint64_t kCacheGet = uint64_t(services::proto::CacheOp::Get);
constexpr kernel::TenantId tenantA = apps::TenantRig::tenantA;
constexpr kernel::TenantId tenantB = apps::TenantRig::tenantB;

// --------------------------------------------------------------------
// Retry budget: token arithmetic
// --------------------------------------------------------------------

TEST(RetryBudget, TokensAccrueAsSuccessFractionAndCap)
{
    services::RetryBudgetOptions opts;
    opts.enabled = true;
    opts.initialTokens = 2.0;
    opts.ratio = 0.1;
    opts.maxTokens = 3.0;
    services::RetryBudget budget(opts);

    // The initial allowance covers exactly two retries.
    EXPECT_EQ(budget.tokens(), 2u);
    EXPECT_TRUE(budget.tryAcquire());
    EXPECT_TRUE(budget.tryAcquire());
    EXPECT_FALSE(budget.tryAcquire());
    EXPECT_EQ(budget.granted(), 2u);
    EXPECT_EQ(budget.exhausted(), 1u);

    // Ten successes buy back exactly one whole token (ratio 0.1,
    // fixed-point: no drift).
    for (int i = 0; i < 9; i++)
        budget.onSuccess();
    EXPECT_EQ(budget.tokens(), 0u);
    budget.onSuccess();
    EXPECT_EQ(budget.tokens(), 1u);
    EXPECT_TRUE(budget.tryAcquire());

    // A long healthy stretch banks at most maxTokens.
    for (int i = 0; i < 1000; i++)
        budget.onSuccess();
    EXPECT_EQ(budget.tokens(), 3u);

    // reset() restores the initial allowance; the counters are
    // history and survive.
    budget.reset();
    EXPECT_EQ(budget.tokens(), 2u);
    EXPECT_EQ(budget.granted(), 3u);
    EXPECT_EQ(budget.exhausted(), 1u);
}

// --------------------------------------------------------------------
// Retry budget: exhaustion fails fast with the typed status
// --------------------------------------------------------------------

TEST(RetryBudget, ExhaustionFailsFastWithTypedStatus)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &ns_t = sys.spawn("nameserver");
    services::NameServer ns(tr, ns_t);
    services::Supervisor sup(tr, ns);
    sup.retryBudgetOpts.enabled = true;
    sup.retryBudgetOpts.initialTokens = 2.0;
    kernel::Thread &client = sys.spawn("client");

    // An admission controller that never drains: one admit, then
    // every further request is shed.
    services::AdmissionOptions aopts;
    aopts.highWatermark = 1;
    aopts.drainCycles = Cycles(1000000000);
    aopts.clientShare = 0;
    services::AdmissionController adm("cache", aopts);

    kernel::Thread &cache_t = sys.spawn("cache");
    services::FileCacheServer cache(tr, cache_t);
    std::vector<uint8_t> page(64, 'x');
    cache.preload("/a", page);
    cache.setAdmission(&adm);
    ns.bind("cache", cache.id());
    sup.supervise("cache", cache_t, cache.id(),
                  [&](kernel::Thread *&) { return cache.id(); });

    hw::Core &core = sys.core(0);
    std::string path = "/a";
    path.push_back('\0');
    uint8_t reply[256];

    // One success fills the queue slot (and accrues a fraction).
    EXPECT_GE(sup.callWithRetry(core, client, "cache", kCacheGet,
                                path.data(), path.size(), reply,
                                sizeof(reply)),
              0);

    // Every further attempt is shed. The 8-attempt ladder would
    // retry 7 times; the 2-token budget grants 2, then the third
    // re-attempt fails fast with the typed status - before any
    // backoff is spent on it.
    EXPECT_LT(sup.callWithRetry(core, client, "cache", kCacheGet,
                                path.data(), path.size(), reply,
                                sizeof(reply), {.maxAttempts = 8}),
              0);
    EXPECT_EQ(sup.lastStatus,
              core::TransportStatus::RetryBudgetExhausted);
    EXPECT_EQ(sup.retryBudgetExhausted.value(), 1u);
    // Only the granted re-attempts ran (the counter counts retries
    // the budget paid for, not the ladder's nominal depth).
    EXPECT_EQ(sup.retries.value(), 2u);
    EXPECT_EQ(sup.budgetFor("cache").tokens(), 0u);
    EXPECT_EQ(sup.budgetFor("cache").granted(), 2u);
}

// --------------------------------------------------------------------
// Retry budget: cross-tenant isolation and heal(tenant) blast radius
// --------------------------------------------------------------------

TEST(RetryBudget, CrossTenantIsolationAndHealScope)
{
    apps::TenantRig rig;
    services::Supervisor &sup = rig.supervisor();
    sup.retryBudgetOpts.enabled = true;

    services::RetryBudget &bA = sup.budgetFor("kv", tenantA);
    services::RetryBudget &bB = sup.budgetFor("kv", tenantB);
    const uint64_t full = uint64_t(sup.retryBudgetOpts.initialTokens);

    // Tenant A's storm drains its kv budget to zero; tenant B's
    // bucket - same service name, different tenant - loses nothing.
    while (bA.tryAcquire()) {
    }
    ASSERT_TRUE(bB.tryAcquire());
    EXPECT_EQ(bA.tokens(), 0u);
    EXPECT_EQ(bB.tokens(), full - 1);

    // heal(tenantA) restarts A's dead services and resets only A's
    // budgets: B keeps its partially-spent bucket.
    rig.killAll(tenantA);
    EXPECT_GT(sup.heal(tenantA), 0u);
    EXPECT_EQ(bA.tokens(), full);
    EXPECT_EQ(bB.tokens(), full - 1);
}

// --------------------------------------------------------------------
// Adaptive admission: AIMD watermark
// --------------------------------------------------------------------

TEST(AdaptiveAdmission, AimdShrinksOncePerEventAndReprobes)
{
    services::AdmissionOptions opts;
    opts.adaptive = true;
    opts.highWatermark = 8;
    opts.minWatermark = 2;
    opts.decreaseFactor = 0.5;
    opts.drainCycles = Cycles(1000);
    opts.increaseCycles = Cycles(10000);
    opts.clientShare = 0;
    services::AdmissionController adm("kv", opts);

    // Fill to the watermark before anything drains or grows.
    Cycles t0(500);
    for (int i = 0; i < 8; i++)
        EXPECT_TRUE(adm.admit(t0, 0));
    // The shed at the watermark is a capacity signal: multiplicative
    // decrease, 8 -> 4.
    EXPECT_FALSE(adm.admit(t0, 0));
    EXPECT_EQ(adm.watermarkDecreases.value(), 1u);
    EXPECT_EQ(adm.effectiveWatermarkAt(t0), 4u);

    // A burst of sheds at the same depth is ONE congestion event:
    // within drainCycles of the last decrease nothing shrinks again.
    EXPECT_FALSE(adm.admit(Cycles(600), 0));
    EXPECT_EQ(adm.watermarkDecreases.value(), 1u);
    EXPECT_EQ(adm.effectiveWatermarkAt(Cycles(600)), 4u);

    // Past the rate limit a fresh shed shrinks again, clamped at the
    // floor: 4 -> 2.
    EXPECT_FALSE(adm.admit(Cycles(2500), 0));
    EXPECT_EQ(adm.watermarkDecreases.value(), 2u);
    EXPECT_EQ(adm.effectiveWatermarkAt(Cycles(2500)), 2u);

    // Recovery is probed additively: one slot back per
    // increaseCycles, an exact function of the cycle clock, up to
    // the configured ceiling.
    EXPECT_EQ(adm.effectiveWatermarkAt(Cycles(32500)), 5u);
    EXPECT_EQ(adm.effectiveWatermarkAt(Cycles(1000000)), 8u);
}

// --------------------------------------------------------------------
// Brownout: the tier ladder sheds lowest-criticality first
// --------------------------------------------------------------------

TEST(Brownout, TierLadderShedsSheddableFirstCriticalLast)
{
    services::AdmissionOptions opts;
    opts.brownout = true;
    opts.highWatermark = 10; // thresholds: sheddable 5, default 8
    opts.drainCycles = Cycles(1000000000);
    opts.clientShare = 0;
    services::AdmissionController adm("kv", opts);
    Cycles now(1);

    auto admitTier = [&](req::Criticality t) {
        return adm.admit(now, 0, 0, t);
    };

    // Below every threshold all tiers are admitted.
    for (int i = 0; i < 5; i++)
        EXPECT_TRUE(admitTier(req::Criticality::Sheddable));
    // Backlog 5 = the sheddable threshold: best-effort goes first
    // while Default and Critical still get through.
    EXPECT_FALSE(admitTier(req::Criticality::Sheddable));
    EXPECT_TRUE(admitTier(req::Criticality::Default));
    for (int i = 0; i < 2; i++)
        EXPECT_TRUE(admitTier(req::Criticality::Default));
    // Backlog 8 = the default threshold: now only Critical.
    EXPECT_FALSE(admitTier(req::Criticality::Default));
    EXPECT_TRUE(admitTier(req::Criticality::Critical));
    EXPECT_TRUE(admitTier(req::Criticality::Critical));
    // Backlog 10 = the full watermark: blackout for everyone.
    EXPECT_FALSE(admitTier(req::Criticality::Critical));

    EXPECT_EQ(adm.admitted.value(), 10u);
    EXPECT_EQ(
        adm.shedByTier[size_t(req::Criticality::Sheddable)].value(),
        1u);
    EXPECT_EQ(
        adm.shedByTier[size_t(req::Criticality::Default)].value(),
        1u);
    EXPECT_EQ(
        adm.shedByTier[size_t(req::Criticality::Critical)].value(),
        1u);
}

// --------------------------------------------------------------------
// Criticality scope semantics
// --------------------------------------------------------------------

TEST(Criticality, ScopeNestsVerbatimUnlikeDeadlines)
{
    req::RequestContext ctx;
    EXPECT_EQ(ctx.currentCriticality(), req::Criticality::Default);
    {
        req::CriticalityScope outer(ctx, req::Criticality::Sheddable);
        EXPECT_EQ(ctx.currentCriticality(),
                  req::Criticality::Sheddable);
        {
            // Unlike deadline scopes (which only tighten), the
            // innermost tier wins verbatim: that is what lets the
            // supervisor *escalate* a breaker probe to Critical
            // inside a sheddable caller.
            req::CriticalityScope probe(ctx, req::Criticality::Critical);
            EXPECT_EQ(ctx.currentCriticality(),
                      req::Criticality::Critical);
        }
        EXPECT_EQ(ctx.currentCriticality(),
                  req::Criticality::Sheddable);
    }
    EXPECT_EQ(ctx.currentCriticality(), req::Criticality::Default);
}

// --------------------------------------------------------------------
// Brownout + breaker: the half-open probe runs at Critical
// --------------------------------------------------------------------

TEST(Brownout, BreakerProbeRunsAtCriticalAndIsNotShed)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    core::Transport &tr = sys.transport();
    kernel::Thread &ns_t = sys.spawn("nameserver");
    services::NameServer ns(tr, ns_t);
    services::Supervisor sup(tr, ns);
    sup.breakerOpts.enabled = true;
    sup.breakerOpts.failureThreshold = 2;
    sup.breakerOpts.cooldownCycles = Cycles(50000);
    kernel::Thread &client = sys.spawn("client");

    // Brownout admission whose backlog never drains, parked exactly
    // at the Default threshold (0.5 x 4 = 2): Default-tier traffic
    // is shed, Critical still fits under the watermark of 4.
    services::AdmissionOptions aopts;
    aopts.brownout = true;
    aopts.highWatermark = 4;
    aopts.sheddableFrac = 0.5;
    aopts.defaultFrac = 0.5;
    aopts.drainCycles = Cycles(1000000000);
    aopts.clientShare = 0;
    services::AdmissionController adm("cache", aopts);
    hw::Core &core = sys.core(0);
    ASSERT_TRUE(adm.admit(core.now(), 0));
    ASSERT_TRUE(adm.admit(core.now(), 0));

    kernel::Thread &cache_t = sys.spawn("cache");
    services::FileCacheServer cache(tr, cache_t);
    std::vector<uint8_t> page(64, 'x');
    cache.preload("/a", page);
    cache.setAdmission(&adm);
    ns.bind("cache", cache.id());
    sup.supervise("cache", cache_t, cache.id(),
                  [&](kernel::Thread *&) { return cache.id(); });

    std::string path = "/a";
    path.push_back('\0');
    uint8_t reply[256];
    auto call = [&] {
        return sup.callWithRetry(core, client, "cache", kCacheGet,
                                 path.data(), path.size(), reply,
                                 sizeof(reply), {.maxAttempts = 1});
    };

    // Default-tier callers are shed at the brownout threshold; two
    // sheds trip the breaker.
    EXPECT_LT(call(), 0);
    EXPECT_LT(call(), 0);
    EXPECT_EQ(sup.breakerFor("cache").state(core.now()),
              core::CircuitBreaker::State::Open);

    // After the cooldown the next call is the half-open probe. The
    // supervisor escalates it to Critical, so the same backlog that
    // sheds Default admits the probe - the breaker closes instead of
    // flapping open on its own recovery check.
    core.spend(Cycles(60000));
    EXPECT_GE(call(), 0);
    EXPECT_EQ(sup.lastStatus, core::TransportStatus::Ok);
    EXPECT_EQ(sup.breakerFor("cache").state(core.now()),
              core::CircuitBreaker::State::Closed);
    EXPECT_EQ(
        adm.shedByTier[size_t(req::Criticality::Critical)].value(),
        0u);
    EXPECT_EQ(
        adm.shedByTier[size_t(req::Criticality::Default)].value(),
        2u);
}

// --------------------------------------------------------------------
// SLO detector: idle windows cannot witness recovery
// --------------------------------------------------------------------

TEST(Regime, IdleWindowsCannotWitnessRecovery)
{
    slo::SloSpec spec;
    spec.kneePerMcycle = 100;
    spec.metastableWindows = 3;
    spec.healthyWindows = 2;
    slo::RegimeTracker t("all", spec, Cycles(1000000));

    // w0 healthy under demand, w1..w4 trapped (offered below the
    // knee, goodput gone), w5..w8 idle: the schedule ended and the
    // queue drained out.
    t.observe(50, 50);
    for (int i = 0; i < 4; i++)
        t.observe(50, 0);
    for (int i = 0; i < 4; i++)
        t.observe(0, 0);
    EXPECT_TRUE(t.sawMetastable());

    // Idle windows classify healthy in the regime timeline (nothing
    // was refused)...
    EXPECT_EQ(t.windows().back(), slo::Regime::Healthy);
    // ...but they witness nothing: a drained-out queue is not a
    // served one, so no sustained healthy run exists yet.
    EXPECT_TRUE(std::isnan(t.recoveryCyclesFrom(1000000)));

    // Recovery is only measured from windows that served real
    // demand: the first of the two demand-bearing healthy windows.
    t.observe(50, 50);
    t.observe(50, 50);
    EXPECT_EQ(t.recoveryCyclesFrom(1000000), 8000000.0);
}

} // namespace
} // namespace xpc
