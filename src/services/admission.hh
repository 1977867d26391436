/**
 * @file
 * Server-side admission control: a bounded pending-work queue with
 * deterministic load shedding and per-client fair-share accounting.
 *
 * A Service (services/service) attached to an AdmissionController
 * consults it at its door, before the handler runs; a request
 * refused admission is answered with CallStatus::Overloaded instead
 * of being queued behind work the server cannot absorb. The queue is
 * modelled as a leaky bucket drained by the simulated cycle clock:
 * every admitted request adds one unit of backlog, and one unit
 * drains every `drainCycles`. Because the drain is a pure function
 * of the cycle clock, two same-seed runs shed exactly the same
 * requests - the determinism the chaos soak asserts.
 *
 * Fair share: each client (keyed by its calling thread id) also has
 * its own bucket; a client whose private backlog reaches
 * `clientShare` is shed even while the global queue has room, so one
 * aggressive client cannot starve the rest.
 */

#ifndef XPC_SERVICES_ADMISSION_HH
#define XPC_SERVICES_ADMISSION_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/request.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace xpc::services {

struct AdmissionOptions
{
    /** Shed when the modelled backlog reaches this many requests. */
    uint32_t highWatermark = 12;
    /** One queued request drains per this many cycles. */
    Cycles drainCycles{2000};
    /** Per-client backlog cap (fair share); 0 disables it. */
    uint32_t clientShare = 8;
    /**
     * Per-tenant backlog cap, for controllers guarding services that
     * are shared across tenants (the name server): one tenant's
     * crash-looping retry storm cannot fill the queue for everyone.
     * 0 (the default) disables it - per-service controllers in
     * single-tenant rigs behave exactly as before.
     */
    uint32_t tenantShare = 0;

    /**
     * AIMD adaptive watermark (opt-in). A static watermark cannot
     * track a post-crash capacity dip: the queue it admits against
     * no longer exists at that depth, so admitted work just queues
     * into collapse. With `adaptive` on, every shed at the watermark
     * is read as a capacity signal and multiplies the *effective*
     * watermark down by `decreaseFactor` (at most once per
     * drainCycles, the classic once-per-congestion-event rule);
     * recovery is probed additively, one slot back per
     * `increaseCycles`, up to the configured highWatermark. The
     * whole loop is a pure function of the admit/shed sequence and
     * the cycle clock - same seed, same effective watermark at every
     * decision.
     */
    bool adaptive = false;
    /** Floor the multiplicative decrease never goes below. */
    uint32_t minWatermark = 2;
    /** Effective watermark multiplier per capacity-loss signal. */
    double decreaseFactor = 0.5;
    /** Additive re-probe: one slot back per this many cycles. */
    Cycles increaseCycles{20000};

    /**
     * Criticality-tiered brownout (opt-in). Instead of one cliff at
     * the watermark, each tier sheds at its own fraction of the
     * effective watermark: Sheddable traffic goes first (at
     * sheddableFrac x W), Default next (defaultFrac x W), Critical
     * only at the full watermark. Under partial overload the backlog
     * settles between the sheddable and critical thresholds, so
     * best-effort traffic absorbs the loss while critical goodput
     * rides through - a brownout, not a blackout.
     */
    bool brownout = false;
    double sheddableFrac = 0.5;
    double defaultFrac = 0.8;
};

class AdmissionController
{
  public:
    explicit AdmissionController(std::string name,
                                 const AdmissionOptions &options = {});

    /**
     * Decide one request: drain the buckets to @p now, then admit
     * (true) or shed (false). @p client_id keys the fair-share
     * bucket (a thread id; 0 = unknown client, global bucket only);
     * @p tenant keys the per-tenant bucket when tenantShare is on;
     * @p tier picks the request's brownout threshold (ignored unless
     * options().brownout - every tier then sheds at the watermark).
     * Sheds and watermark decreases are marked on @p tracer (null =
     * not traced).
     */
    bool admit(Cycles now, uint32_t client_id, uint32_t tenant = 0,
               req::Criticality tier = req::Criticality::Default,
               trace::Tracer *tracer = nullptr);

    /** Modelled global backlog after draining to @p now (tests). */
    uint64_t backlogAt(Cycles now) const;

    /**
     * Restart-time reset: drop the modelled backlog and every
     * per-client bucket. The queued work a restarted server was
     * drowning under died with the old instance; keeping the buckets
     * would shed the first requests to a perfectly idle server.
     * Counters survive (history, not state).
     */
    void reset();

    /**
     * Quarantine-recovery reset for one tenant of a *shared*
     * controller: drop that tenant's bucket (its backlog died with
     * its crashed services) without touching the global bucket or
     * any other tenant's. Per-service controllers use reset().
     */
    void resetTenant(uint32_t tenant);

    /** Modelled backlog of @p tenant's bucket at @p now (tests). */
    uint64_t tenantBacklogAt(Cycles now, uint32_t tenant) const;

    /**
     * The watermark actually enforced after draining the AIMD state
     * to @p now: == options().highWatermark unless `adaptive` has
     * shrunk it. Exposed for the benches and the backlog gauges.
     */
    uint32_t effectiveWatermarkAt(Cycles now) const;

    const AdmissionOptions &options() const { return opts; }

    Counter admitted;
    /** Requests shed at the global high-watermark. */
    Counter shed;
    /** Requests shed by the per-client fair-share cap. */
    Counter shedFairShare;
    /** Requests shed by the per-tenant fair-share cap. */
    Counter shedTenantShare;
    /**
     * Every shed, broken down by the victim's criticality tier
     * (indexed by req::Criticality). Counted whether or not brownout
     * is on, so the brownout bench can assert that below the knee no
     * critical request was ever shed.
     */
    Counter shedByTier[req::criticalityCount];
    /** AIMD multiplicative decreases taken (capacity-loss signals). */
    Counter watermarkDecreases;

    /** Registry node; attach it next to the owning server's. */
    StatGroup stats;

  private:
    struct Bucket
    {
        uint64_t level = 0;
        uint64_t lastDrain = 0;
    };

    /** Leak @p b down to @p now (one unit per drainCycles). */
    void drain(Bucket &b, uint64_t now) const;

    /** AIMD additive re-probe up to @p now, in whole increaseCycles
     *  periods (an exact clock function, like drain()). */
    void growWatermark(uint64_t now);
    /** One capacity-loss signal: multiplicative decrease, rate-
     *  limited to once per drainCycles. */
    void shrinkWatermark(uint64_t now, trace::Tracer *tracer);
    /** Brownout threshold of @p tier against watermark @p wm. */
    uint32_t tierThreshold(req::Criticality tier, uint32_t wm) const;

    std::string name_;
    AdmissionOptions opts;
    Bucket global;
    std::map<uint32_t, Bucket> perClient;
    std::map<uint32_t, Bucket> perTenant;

    /** Fixed-point effective watermark (millislots): fractional
     *  additive growth stays exact integer arithmetic. */
    uint64_t wmMilli = 0;
    uint64_t lastGrow = 0;
    uint64_t lastShrink = 0;
};

} // namespace xpc::services

#endif // XPC_SERVICES_ADMISSION_HH
