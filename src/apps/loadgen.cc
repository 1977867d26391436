#include "loadgen.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "core/breaker.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/request.hh"

namespace xpc::apps {

using namespace xpc::services;

const char *const LoadGenResult::serviceNames[3] = {"kv", "httpd",
                                                    "fs"};

const char *
loadOutcomeName(LoadOutcome o)
{
    switch (o) {
      case LoadOutcome::Ok: return "ok";
      case LoadOutcome::Shed: return "shed";
      case LoadOutcome::Timeout: return "timeout";
      case LoadOutcome::Breaker: return "breaker";
      case LoadOutcome::Abandoned: return "abandoned";
      case LoadOutcome::Error: return "error";
    }
    return "?";
}

LoadGenResult::LoadGenResult(const LoadGenOptions &o)
    : config(o), latencyTenant(o.tenants), series(o.windowCycles)
{}

double
LoadGenResult::goodputPerMcycle() const
{
    uint64_t e = elapsedCycles();
    return e == 0 ? 0 : double(goodput()) * 1e6 / double(e);
}

double
LoadGenResult::offeredPerMcycleActual() const
{
    uint64_t e = elapsedCycles();
    return e == 0 ? 0 : double(offered) * 1e6 / double(e);
}

namespace {

/** Zipfian key universe for the kv workload. */
constexpr uint64_t zipfKeys = 256;

/** "kv@t1" - the (tenant, service) label every layer shares. */
std::string
svcLabel(uint32_t svc, uint32_t tenant_ix)
{
    return std::string(LoadGenResult::serviceNames[svc]) + "@t" +
           std::to_string(tenant_ix + 1);
}

} // namespace

void
LoadGenResult::dumpJson(std::ostream &os) const
{
    os << "{\n \"config\":{\"seed\":" << config.seed
       << ",\"offered_per_mcycle\":" << json::num(config.offeredPerMcycle)
       << ",\"requests\":" << config.requests
       << ",\"tenants\":" << config.tenants << ",\"mix\":{\"kv\":"
       << config.kvWeight << ",\"httpd\":" << config.httpWeight
       << ",\"fs\":" << config.fsWeight << "}"
       << ",\"zipf_keys\":" << zipfKeys
       << ",\"zipf_theta\":" << json::num(config.zipfTheta)
       << ",\"zipf_theta_step\":" << json::num(config.zipfThetaStep)
       << ",\"deadline_cycles\":" << config.deadlineCycles.value()
       << ",\"window_cycles\":" << config.windowCycles.value()
       << ",\"max_attempts\":" << config.maxAttempts
       << ",\"breakers\":" << (config.breakers ? "true" : "false");
    // Remediation knobs only appear when switched on, so historical
    // documents keep their exact shape (and bytes).
    if (config.tierCriticalWeight + config.tierSheddableWeight > 0)
        os << ",\"tier_mix\":{\"critical\":" << config.tierCriticalWeight
           << ",\"default\":" << config.tierDefaultWeight
           << ",\"sheddable\":" << config.tierSheddableWeight << "}";
    if (config.retryBudget.enabled)
        os << ",\"retry_budget\":true";
    if (config.admission.adaptive)
        os << ",\"adaptive_admission\":true";
    if (config.admission.brownout)
        os << ",\"brownout\":true";
    if (!config.phases.empty()) {
        os << ",\"phases\":[";
        for (size_t i = 0; i < config.phases.size(); i++) {
            const LoadPhase &p = config.phases[i];
            os << (i ? "," : "")
               << "{\"rate\":" << json::num(p.offeredPerMcycle)
               << ",\"requests\":" << p.requests;
            if (!p.markName.empty())
                os << ",\"mark\":" << json::str(p.markName);
            os << "}";
        }
        os << "]";
    }
    if (config.killAtRequest != 0)
        os << ",\"kill_at_request\":" << config.killAtRequest
           << ",\"kill_tenant\":" << config.killTenant
           << ",\"kill_service\":" << config.killService
           << ",\"healing\":" << (config.healing ? "true" : "false");
    os << "},\n";
    os << " \"totals\":{\"offered\":" << offered;
    for (size_t i = 0; i < loadOutcomeCount; i++)
        os << "," << json::str(loadOutcomeName(LoadOutcome(i))) << ":"
           << counts[i];
    os << "},\n";
    if (config.tierCriticalWeight + config.tierSheddableWeight > 0) {
        os << " \"tiers\":{";
        for (size_t i = 0; i < req::criticalityCount; i++) {
            os << (i ? "," : "")
               << json::str(req::criticalityName(req::Criticality(i)))
               << ":{\"offered\":" << tierOffered[i]
               << ",\"ok\":" << tierOk[i] << ",\"shed\":" << tierShed[i]
               << "}";
        }
        os << "},\n";
    }
    os << " \"elapsed_cycles\":" << elapsedCycles()
       << ",\n \"offered_per_mcycle\":" << json::num(offeredPerMcycleActual())
       << ",\n \"goodput_per_mcycle\":" << json::num(goodputPerMcycle())
       << ",\n \"latency\":{\n  \"all\":";
    latencyAll.summaryJson(os);
    os << ",\n  \"service\":{";
    for (size_t i = 0; i < 3; i++) {
        os << (i ? "," : "") << json::str(serviceNames[i]) << ":";
        latencyService[i].summaryJson(os);
    }
    os << "},\n  \"tenant\":{";
    for (size_t i = 0; i < latencyTenant.size(); i++) {
        os << (i ? "," : "") << "\"t" << (i + 1) << "\":";
        latencyTenant[i].summaryJson(os);
    }
    os << "},\n  \"outcome\":{";
    for (size_t i = 0; i < loadOutcomeCount; i++) {
        os << (i ? "," : "") << json::str(loadOutcomeName(LoadOutcome(i)))
           << ":";
        latencyOutcome[i].summaryJson(os);
    }
    os << "}},\n";
    if (!marks.empty()) {
        os << " \"marks\":[";
        for (size_t i = 0; i < marks.size(); i++)
            os << (i ? "," : "") << "{\"name\":" << json::str(marks[i].name)
               << ",\"cycle\":" << marks[i].cycle << "}";
        os << "],\n";
    }
    if (!sloTrackers.empty()) {
        os << " \"slo\":{\n";
        for (size_t i = 0; i < sloTrackers.size(); i++) {
            os << (i ? ",\n" : "") << "  "
               << json::str(sloTrackers[i]->label()) << ":";
            sloTrackers[i]->dumpJson(os, 0);
        }
        os << "},\n";
    }
    os << " \"timeseries\":\n";
    series.dumpJson(os, 2);
    os << "\n}\n";
}

LoadGen::LoadGen(const LoadGenOptions &options)
    : opts(options), res(options), rng(options.seed)
{
    panic_if(opts.tenants < 1 || opts.tenants > TenantRig::maxTenants,
             "tenants must be in 1..%u", TenantRig::maxTenants);
    panic_if(opts.kvWeight + opts.httpWeight + opts.fsWeight == 0,
             "service mix must have at least one non-zero weight");
    panic_if(opts.tierCriticalWeight + opts.tierDefaultWeight +
                     opts.tierSheddableWeight ==
                 0,
             "tier mix must have at least one non-zero weight");

    // The effective schedule: explicit phases, or the one implicit
    // phase the flat options describe.
    if (opts.phases.empty()) {
        panic_if(opts.offeredPerMcycle <= 0,
                 "offered rate must be > 0");
        schedule.push_back({opts.offeredPerMcycle, opts.requests, ""});
    } else {
        schedule = opts.phases;
        for (const LoadPhase &p : schedule)
            panic_if(p.offeredPerMcycle <= 0,
                     "phase rates must be > 0");
    }

    // One Zipfian per tenant, each with its own skew and seed lane:
    // the draw order stays a pure function of the master seed.
    for (uint32_t t = 0; t < opts.tenants; t++) {
        double theta = opts.zipfTheta - double(t) * opts.zipfThetaStep;
        theta = std::clamp(theta, 0.0, 0.999);
        zipfs.emplace_back(zipfKeys, theta,
                           opts.seed ^ (0x5a5a5a5aULL + t * 0x9e3779b97f4a7c15ULL));
    }

    TenantRigOptions ro;
    ro.flavor = opts.flavor;
    ro.tenants = opts.tenants;
    ro.breakers = opts.breakers;
    ro.admitAll = true;
    ro.admissionOpts = opts.admission;
    ro.retryBudget = opts.retryBudget;
    rig_ = std::make_unique<TenantRig>(ro);
    rig_->policy.maxAttempts = opts.maxAttempts;
    rig_->supervisor().autoHeal = opts.healing;
    if (opts.breakers && opts.breakerCooldownCycles.value() != 0) {
        // Breakers are created lazily on first use, so retuning the
        // options here (before any call) covers all of them.
        rig_->supervisor().breakerOpts.cooldownCycles =
            opts.breakerCooldownCycles;
    }

    // The generator's own curves come first so the JSON channel
    // order stays stable no matter how many tenants are active.
    chOffered = res.series.counterChannel("offered");
    chGoodput = res.series.counterChannel("goodput");
    chShed = res.series.counterChannel("shed");
    chTimeout = res.series.counterChannel("timeout");
    chFailed = res.series.counterChannel("failed");
    chAbandoned = res.series.counterChannel("abandoned");
    chBacklog = res.series.gaugeChannel("admission_backlog");
    chBreakers = res.series.gaugeChannel("breakers_open");

    if (opts.slo.enabled()) {
        // Per-(tenant, service) curves feed the per-spec trackers.
        for (uint32_t t = 0; t < opts.tenants; t++) {
            for (uint32_t s = 0; s < 3; s++) {
                std::string label = svcLabel(s, t);
                chSvcOffered.push_back(
                    res.series.counterChannel(label + ".offered"));
                chSvcGoodput.push_back(
                    res.series.counterChannel(label + ".goodput"));
            }
        }
        // Supervisor lifecycle events annotate the regime timeline.
        hw::Core &core = rig_->system().core(0);
        rig_->supervisor().onLifecycle =
            [this, &core](const char *event, const std::string &name,
                          kernel::TenantId tenant) {
                res.marks.push_back(
                    {std::string(event) + ":" + name + "@t" +
                         std::to_string(tenant),
                     core.now().value()});
            };
    }

    for (uint32_t t = 0; t < opts.tenants; t++) {
        TenantRig::Stack &st = rig_->stack(TenantRig::tenantOf(t));
        st.telKv->attachSeries(&res.series);
        st.telHttp->attachSeries(&res.series);
        st.telFs->attachSeries(&res.series);
        // Make the per-service histograms visible in the system's
        // stat registry dump, beside the kernel's phase histograms.
        st.telKv->stats.setParent(&rig_->system().stats());
        st.telHttp->stats.setParent(&rig_->system().stats());
        st.telFs->stats.setParent(&rig_->system().stats());
    }
}

void
LoadGen::warmup()
{
    hw::Core &core = rig_->system().core(0);
    uint64_t keys = std::min<uint64_t>(zipfKeys, 32);
    for (uint32_t t = 0; t < opts.tenants; t++) {
        kernel::TenantId tenant = TenantRig::tenantOf(t);
        for (uint64_t k = 1; k <= keys; k++) {
            rig_->kvPut(tenant, k);
            // Pace the preload below the admission drain rate so it
            // neither sheds nor leaves backlog behind.
            core.spend(Cycles(4000));
        }
        rig_->httpGet(tenant, "/index.html", nullptr, nullptr);
        core.spend(Cycles(4000));
    }
}

uint32_t
LoadGen::pickService()
{
    uint64_t total = opts.kvWeight + opts.httpWeight + opts.fsWeight;
    uint64_t r = rng.nextBounded(total);
    if (r < opts.kvWeight)
        return 0;
    if (r < opts.kvWeight + opts.httpWeight)
        return 1;
    return 2;
}

req::Criticality
LoadGen::pickTier()
{
    uint64_t total = opts.tierCriticalWeight + opts.tierDefaultWeight +
                     opts.tierSheddableWeight;
    uint64_t r = rng.nextBounded(total);
    if (r < opts.tierCriticalWeight)
        return req::Criticality::Critical;
    if (r < opts.tierCriticalWeight + opts.tierDefaultWeight)
        return req::Criticality::Default;
    return req::Criticality::Sheddable;
}

LoadOutcome
LoadGen::issue(kernel::TenantId tenant, uint32_t svc, uint64_t key,
               bool is_put)
{
    bool ok = false;
    switch (svc) {
      case 0:
        ok = is_put ? rig_->kvPut(tenant, key)
                    : rig_->kvGet(tenant, key) >= 0;
        break;
      case 1: {
        int64_t n =
            rig_->httpGet(tenant, "/index.html", nullptr, nullptr);
        ok = n != TenantRig::callFailed;
        break;
      }
      default: {
        std::string path = "/l" + std::to_string(key % 8);
        proto::FsMsg om;
        om.a = int64_t(proto::fsOpenCreate);
        om.c = int64_t(path.size());
        int64_t fd = rig_->fsOp(tenant, proto::FsOp::Open, om,
                                path.data(), path.size(), nullptr, 0);
        if (fd == TenantRig::callFailed) {
            ok = false;
        } else if (fd >= 0) {
            proto::FsMsg cm;
            cm.a = fd;
            int64_t c = rig_->fsOp(tenant, proto::FsOp::Close, cm,
                                   nullptr, 0, nullptr, 0);
            ok = c != TenantRig::callFailed;
        } else {
            ok = true; // an fs-level error is still a served reply
        }
        break;
      }
    }
    return ok ? LoadOutcome::Ok
              : loadOutcomeOf(rig_->supervisor().lastStatus);
}

LoadOutcome
loadOutcomeOf(core::TransportStatus status)
{
    switch (status) {
      case core::TransportStatus::Overloaded:
        return LoadOutcome::Shed;
      case core::TransportStatus::DeadlineExpired:
      case core::TransportStatus::Timeout:
        return LoadOutcome::Timeout;
      case core::TransportStatus::BreakerOpen:
        return LoadOutcome::Breaker;
      default:
        return LoadOutcome::Error;
    }
}

void
LoadGen::sampleGauges(uint64_t now)
{
    uint64_t backlog = 0;
    for (uint32_t t = 0; t < opts.tenants; t++) {
        TenantRig::Stack &st = rig_->stack(TenantRig::tenantOf(t));
        backlog += st.admKv->backlogAt(Cycles(now));
        if (st.admFs)
            backlog += st.admFs->backlogAt(Cycles(now));
        if (st.admHttp)
            backlog += st.admHttp->backlogAt(Cycles(now));
    }
    res.series.sample(chBacklog, now, double(backlog));

    uint32_t open = 0;
    if (opts.breakers) {
        static const char *const names[3] = {"kv", "httpd", "fs"};
        for (uint32_t t = 0; t < opts.tenants; t++) {
            kernel::TenantId tenant = TenantRig::tenantOf(t);
            for (const char *name : names) {
                auto &b = rig_->supervisor().breakerFor(name, tenant);
                if (b.state(Cycles(now)) ==
                    core::CircuitBreaker::State::Open)
                    open++;
            }
        }
    }
    res.series.sample(chBreakers, now, double(open));
}

void
LoadGen::evaluateSlo()
{
    // Aggregate tracker first, then one per (tenant, service). The
    // per-service knee is the aggregate knee scaled by that
    // service's share of the offered mix - an expectation reference,
    // not a separately calibrated capacity.
    res.sloTrackers.push_back(std::make_unique<slo::RegimeTracker>(
        "all", opts.slo, opts.windowCycles));
    const double total =
        double(opts.kvWeight + opts.httpWeight + opts.fsWeight);
    const double weights[3] = {double(opts.kvWeight),
                               double(opts.httpWeight),
                               double(opts.fsWeight)};
    for (uint32_t t = 0; t < opts.tenants; t++) {
        for (uint32_t s = 0; s < 3; s++) {
            slo::SloSpec spec = opts.slo;
            spec.kneePerMcycle = opts.slo.kneePerMcycle *
                                 (weights[s] / total) /
                                 double(opts.tenants);
            if (spec.kneePerMcycle <= 0)
                continue; // zero-weight service: nothing to classify
            res.sloTrackers.push_back(
                std::make_unique<slo::RegimeTracker>(
                    svcLabel(s, t), spec, opts.windowCycles));
        }
    }

    size_t ix = 1;
    for (auto &tracker : res.sloTrackers) {
        for (const slo::Mark &m : res.marks)
            tracker->mark(m.name, m.cycle);
    }
    res.sloTrackers[0]->observeSeries(res.series, chOffered,
                                      chGoodput);
    for (uint32_t t = 0; t < opts.tenants; t++) {
        for (uint32_t s = 0; s < 3; s++) {
            if (weights[s] <= 0)
                continue;
            res.sloTrackers[ix]->observeSeries(
                res.series, chSvcOffered[t * 3 + s],
                chSvcGoodput[t * 3 + s]);
            ix++;
        }
    }
}

const LoadGenResult &
LoadGen::run()
{
    hw::Core &core = rig_->system().core(0);
    warmup();

    uint64_t base = core.now().value();
    res.startCycle = base;
    double cum = 0;
    uint64_t issued = 0;
    bool killed = false;

    for (const LoadPhase &phase : schedule) {
        double mean_ia = 1e6 / phase.offeredPerMcycle;
        uint64_t last_arrival = base + uint64_t(cum);
        for (uint64_t i = 0; i < phase.requests; i++) {
            // Every random draw happens here, unconditionally and in
            // a fixed order: the schedule is a pure function of the
            // seed and can never depend on how earlier requests
            // fared.
            cum += -std::log(1.0 - rng.nextDouble()) * mean_ia;
            uint64_t arrival = base + uint64_t(cum);
            last_arrival = arrival;
            uint32_t tix =
                opts.tenants > 1 ? uint32_t(rng.nextBounded(opts.tenants))
                                 : 0;
            uint32_t svc = pickService();
            uint64_t key = 1 + zipfs[tix].next();
            bool is_put = rng.nextDouble() < 0.5;
            // Conditional on config (like the tenant draw above),
            // never on outcomes: untiered schedules draw nothing and
            // stay bit-for-bit the historical ones.
            req::Criticality tier =
                tiered() ? pickTier() : req::Criticality::Default;

            kernel::TenantId tenant = TenantRig::tenantOf(tix);
            issued++;

            if (opts.killAtRequest != 0 && !killed &&
                issued == opts.killAtRequest) {
                // Crash-mid-surge: the victim dies at this request's
                // scheduled arrival; whether it ever comes back is
                // the supervisor's (autoHeal) business.
                rig_->killOne(opts.killTenant, opts.killService);
                res.marks.push_back({"fault", arrival});
                killed = true;
            }

            core.syncTo(Cycles(arrival));
            res.offered++;
            res.tierOffered[size_t(tier)]++;
            res.series.add(chOffered, arrival);
            if (opts.slo.enabled())
                res.series.add(chSvcOffered[tix * 3 + svc], arrival);

            uint64_t dl = opts.deadlineCycles.value() == 0
                              ? 0
                              : arrival + opts.deadlineCycles.value();
            LoadOutcome out;
            if (dl != 0 && core.now().value() >= dl) {
                // The mesh is so far behind that this request's
                // deadline passed before it could even be issued: the
                // caller hangs up. This is what keeps an open-loop
                // generator from pushing work nobody is waiting for.
                out = LoadOutcome::Abandoned;
            } else {
                req::DeadlineScope scope(core.requests(), dl);
                req::CriticalityScope tscope(core.requests(), tier);
                out = issue(tenant, svc, key, is_put);
            }

            uint64_t end = core.now().value();
            uint64_t lat = end - arrival;
            res.counts[size_t(out)]++;
            res.latencyAll.record(lat);
            res.latencyService[svc].record(lat);
            res.latencyTenant[tix].record(lat);
            res.latencyOutcome[size_t(out)].record(lat);
            switch (out) {
              case LoadOutcome::Ok:
                res.tierOk[size_t(tier)]++;
                res.series.add(chGoodput, end);
                if (opts.slo.enabled())
                    res.series.add(chSvcGoodput[tix * 3 + svc], end);
                break;
              case LoadOutcome::Shed:
                res.tierShed[size_t(tier)]++;
                res.series.add(chShed, end);
                break;
              case LoadOutcome::Timeout:
                res.series.add(chTimeout, end);
                break;
              case LoadOutcome::Abandoned:
                res.series.add(chAbandoned, end);
                break;
              default:
                res.series.add(chFailed, end);
                break;
            }
            sampleGauges(end);
        }
        if (!phase.markName.empty())
            res.marks.push_back({phase.markName, last_arrival});
    }
    res.endCycle = core.now().value();
    if (opts.slo.enabled())
        evaluateSlo();
    return res;
}

} // namespace xpc::apps
