/**
 * @file
 * Seeded open-loop load generator over the supervised tenant mesh.
 *
 * Closed-loop clients (everything in bench/ before this) wait for
 * each reply before sending the next request, so they can never
 * observe queueing collapse: the offered load falls with the service
 * rate. LoadGen is open-loop: it pre-draws a Poisson arrival schedule
 * at a configured offered rate and issues every request at its
 * scheduled simulated-cycle arrival, advancing the core's clock with
 * syncTo() when the generator is ahead of the mesh. Latency is
 * measured from the *arrival*, not from the moment the call is
 * issued, so the time a request spends waiting behind a saturated
 * mesh is part of its tail - the methodology of open-loop tail
 * studies (and the reason the goodput-vs-offered-load curve can
 * actually show the admission knee).
 *
 * Each request draws tenant, service (kv / httpd / fs, weighted) and
 * a Zipfian key (from the drawn tenant's own generator, each with its
 * own skew) in a fixed per-request order, so the schedule is a pure
 * function of the seed and never depends on outcomes: two same-seed
 * runs are byte-identical, shed or not. Requests whose arrival-
 * anchored deadline has already passed before they are issued are
 * abandoned client-side (the open-loop analogue of a caller hanging
 * up), which is what lets goodput saturate instead of collapsing
 * under 2x overload.
 *
 * The rate can be *phased* (ramp past the knee, ramp back down - the
 * hysteresis experiment), a service kill can be scheduled mid-run
 * (crash-mid-surge), and with an SloSpec attached the run classifies
 * every time-series window into healthy / overloaded / metastable
 * regimes and reports recovery times relative to the recorded marks
 * (phase boundaries, the injected fault, supervisor restarts). All
 * of that is default-off; the plain configuration behaves exactly
 * like the PR-7 generator.
 *
 * Results land in per-service, per-tenant and per-outcome fixed-
 * memory Histograms plus a windowed TimeSeries (offered, goodput,
 * sheds, backlog, breaker state), all dumpable as one stable JSON
 * document.
 */

#ifndef XPC_APPS_LOADGEN_HH
#define XPC_APPS_LOADGEN_HH

#include <memory>
#include <vector>

#include "apps/tenant_rig.hh"
#include "sim/histogram.hh"
#include "sim/random.hh"
#include "sim/request.hh"
#include "sim/slo.hh"
#include "sim/timeseries.hh"

namespace xpc::apps {

/** One segment of a phased offered-load schedule. */
struct LoadPhase
{
    /** Offered arrival rate in this phase, requests per Mcycle. */
    double offeredPerMcycle = 0;
    /** Requests drawn in this phase. */
    uint64_t requests = 0;
    /** Non-empty: record a mark with this name at the phase's last
     *  scheduled arrival ("surge_end", ...). */
    std::string markName;
};

struct LoadGenOptions
{
    core::SystemFlavor flavor = core::SystemFlavor::Sel4Xpc;
    uint64_t seed = 42;
    /** Offered arrival rate, requests per million cycles. */
    double offeredPerMcycle = 300;
    /** Total requests in the schedule. */
    uint64_t requests = 2000;
    /**
     * Phased schedule (hysteresis ramps); empty = a single phase of
     * (offeredPerMcycle, requests). When set, it replaces both.
     */
    std::vector<LoadPhase> phases;
    /** Tenants drawing from the same schedule,
     *  1..TenantRig::maxTenants. */
    uint32_t tenants = 2;
    /** Service mix weights (kv-heavy by default, like YCSB). */
    uint32_t kvWeight = 6;
    uint32_t httpWeight = 3;
    uint32_t fsWeight = 1;
    /** Tenant t (0-based) draws keys with skew
     *  theta = zipfTheta - t * zipfThetaStep (clamped to [0, 0.999]):
     *  per-tenant popularity profiles from one seed. */
    double zipfTheta = 0.99;
    double zipfThetaStep = 0.0;
    /** Arrival-anchored deadline per request; 0 = none. */
    Cycles deadlineCycles{400000};
    /** TimeSeries window width. */
    Cycles windowCycles{100000};
    /**
     * Retries amplify offered load under overload, so the open-loop
     * default is a single attempt; the retry ladder is the closed-
     * loop chaos suites' territory.
     */
    uint32_t maxAttempts = 1;
    /**
     * Breakers default off: with admission shedding feeding
     * noteFailure(), a breaker would quarantine a merely-busy
     * service and turn an overload plateau into a cliff. Turn on to
     * measure exactly that cliff.
     */
    bool breakers = false;
    /** Override the rig's breaker cooldown (0 = rig default). The
     *  metastable experiment sets this far past the run length so an
     *  open breaker never probes its way closed. */
    Cycles breakerCooldownCycles{0};
    /**
     * Crash injection: just before drawing request #killAtRequest
     * (1-based; 0 = off), kill killTenant's service #killService
     * (TenantRig victim index, 5 = kv) and record a "fault" mark.
     */
    uint64_t killAtRequest = 0;
    kernel::TenantId killTenant = TenantRig::tenantA;
    uint32_t killService = 5;
    /** Supervisor::autoHeal: false leaves crashed services down. */
    bool healing = true;
    /**
     * Criticality tier mix, critical:default:sheddable weights. The
     * all-Default default draws nothing, so untiered schedules stay
     * bit-for-bit the historical ones (like the tenant draw, the
     * tier draw is conditional on *config*, never on outcomes); any
     * non-default mix adds one tier draw per request and stamps each
     * request's CriticalityScope for the brownout ladder.
     */
    uint32_t tierCriticalWeight = 0;
    uint32_t tierDefaultWeight = 1;
    uint32_t tierSheddableWeight = 0;
    /** Per-(tenant, service) retry budget, forwarded to the rig's
     *  supervisor; disabled by default. */
    services::RetryBudgetOptions retryBudget;
    /** Options for every admission controller the rig builds; the
     *  adaptive/brownout experiments override the defaults. */
    services::AdmissionOptions admission;
    /**
     * SLO health layer (DESIGN.md §4i). Default-off: a zero knee
     * skips regime tracking entirely and the JSON document keeps its
     * PR-7 shape. With a calibrated knee the run adds per-(tenant,
     * service) offered/goodput channels, classifies every window,
     * and emits the regime timeline + recovery table under "slo".
     */
    slo::SloSpec slo;
};

/** Client-observed fate of one scheduled request. */
enum class LoadOutcome
{
    Ok,        ///< served within its deadline
    Shed,      ///< refused admission (CallStatus::Overloaded)
    Timeout,   ///< deadline expired or watchdog fired mid-call
    Breaker,   ///< short-circuited by an open breaker
    Abandoned, ///< deadline already past at issue time; never sent
    Error,     ///< any other failure
};
constexpr size_t loadOutcomeCount = 6;
const char *loadOutcomeName(LoadOutcome o);

/**
 * The client-observed fate of a request the mesh did not serve, from
 * the failing call's status. Named failure modes without a lane of
 * their own (a spent retry budget, a detected integrity violation)
 * ride the Error lane, so the outcome vector keeps its shape.
 */
LoadOutcome loadOutcomeOf(core::TransportStatus status);

struct LoadGenResult
{
    explicit LoadGenResult(const LoadGenOptions &o);

    LoadGenOptions config;
    uint64_t offered = 0;
    uint64_t counts[loadOutcomeCount] = {};
    uint64_t startCycle = 0;
    uint64_t endCycle = 0;

    /** Arrival-to-completion latency, cycles. */
    Histogram latencyAll;
    Histogram latencyService[3]; ///< kv, httpd, fs
    std::vector<Histogram> latencyTenant;
    Histogram latencyOutcome[loadOutcomeCount];
    TimeSeries series;

    /** Per-criticality-tier tallies, indexed by req::Criticality.
     *  All-Default unless the configured tier mix is non-default
     *  (the JSON document only grows a "tiers" section then). */
    uint64_t tierOffered[req::criticalityCount] = {};
    uint64_t tierOk[req::criticalityCount] = {};
    uint64_t tierShed[req::criticalityCount] = {};

    /** Timeline annotations (phase marks, fault, restarts). */
    std::vector<slo::Mark> marks;

    /** Regime trackers, populated after run() when slo.enabled():
     *  [0] aggregate "all", then one per (tenant, service). */
    std::vector<std::unique_ptr<slo::RegimeTracker>> sloTrackers;

    static const char *const serviceNames[3];

    uint64_t goodput() const { return counts[0]; }
    uint64_t elapsedCycles() const { return endCycle - startCycle; }
    double goodputPerMcycle() const;
    double offeredPerMcycleActual() const;

    /** The aggregate tracker (null unless slo.enabled()). */
    const slo::RegimeTracker *sloAll() const
    {
        return sloTrackers.empty() ? nullptr : sloTrackers[0].get();
    }

    /** Tracker by label ("kv@t1", "all"); null when absent. */
    const slo::RegimeTracker *sloFor(const std::string &label) const
    {
        for (const auto &t : sloTrackers)
            if (t->label() == label)
                return t.get();
        return nullptr;
    }

    /** One stable JSON document (same seed => same bytes). */
    void dumpJson(std::ostream &os) const;
};

class LoadGen
{
  public:
    explicit LoadGen(const LoadGenOptions &options = {});

    /** Run the full schedule (call once). */
    const LoadGenResult &run();

    TenantRig &rig() { return *rig_; }
    const LoadGenResult &result() const { return res; }

  private:
    void warmup();
    uint32_t pickService();
    req::Criticality pickTier();
    /** True when the configured tier mix is non-default. */
    bool tiered() const
    {
        return opts.tierCriticalWeight + opts.tierSheddableWeight > 0;
    }
    LoadOutcome issue(kernel::TenantId tenant, uint32_t svc,
                      uint64_t key, bool is_put);
    void sampleGauges(uint64_t now);
    void evaluateSlo();

    LoadGenOptions opts;
    /** The effective schedule: opts.phases, or the one implicit
     *  phase. */
    std::vector<LoadPhase> schedule;
    std::unique_ptr<TenantRig> rig_;
    LoadGenResult res;
    Rng rng;
    std::vector<Zipfian> zipfs; ///< one per tenant, per-tenant skew

    TimeSeries::ChannelId chOffered = 0;
    TimeSeries::ChannelId chGoodput = 0;
    TimeSeries::ChannelId chShed = 0;
    TimeSeries::ChannelId chTimeout = 0;
    TimeSeries::ChannelId chFailed = 0;
    TimeSeries::ChannelId chAbandoned = 0;
    TimeSeries::ChannelId chBacklog = 0;
    TimeSeries::ChannelId chBreakers = 0;
    /** Per (tenant, service) curves, slo.enabled() only:
     *  [t * 3 + svc]. */
    std::vector<TimeSeries::ChannelId> chSvcOffered;
    std::vector<TimeSeries::ChannelId> chSvcGoodput;
};

} // namespace xpc::apps

#endif // XPC_APPS_LOADGEN_HH
