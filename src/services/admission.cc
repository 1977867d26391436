#include "admission.hh"

#include <algorithm>

#include "sim/trace.hh"

namespace xpc::services {

AdmissionController::AdmissionController(std::string name,
                                         const AdmissionOptions &options)
    : stats("admission." + name), name_(std::move(name)), opts(options),
      wmMilli(uint64_t(options.highWatermark) * 1000)
{
    stats.addCounter("admitted", &admitted);
    stats.addCounter("shed", &shed);
    stats.addCounter("shed_fair_share", &shedFairShare);
    stats.addCounter("shed_tenant_share", &shedTenantShare);
    stats.addCounter("shed_by_tier_sheddable",
                     &shedByTier[size_t(req::Criticality::Sheddable)]);
    stats.addCounter("shed_by_tier_default",
                     &shedByTier[size_t(req::Criticality::Default)]);
    stats.addCounter("shed_by_tier_critical",
                     &shedByTier[size_t(req::Criticality::Critical)]);
    stats.addCounter("watermark_decreases", &watermarkDecreases);
}

void
AdmissionController::growWatermark(uint64_t now)
{
    if (now <= lastGrow) {
        lastGrow = now;
        return;
    }
    uint64_t period = opts.increaseCycles.value();
    if (period == 0)
        return;
    uint64_t steps = (now - lastGrow) / period;
    uint64_t cap = uint64_t(opts.highWatermark) * 1000;
    wmMilli = std::min(cap, wmMilli + steps * 1000);
    // Whole periods only, like drain(): the remainder stays banked
    // so the watermark is an exact function of the cycle clock.
    lastGrow += steps * period;
}

void
AdmissionController::shrinkWatermark(uint64_t now,
                                     trace::Tracer *tracer)
{
    // One decrease per drainCycles at most - the classic once-per-
    // congestion-event rule. A burst of sheds at the same depth is
    // one capacity signal, not many.
    if (now < lastShrink + opts.drainCycles.value() && lastShrink != 0)
        return;
    uint64_t floor_m = uint64_t(opts.minWatermark) * 1000;
    uint64_t next = uint64_t(double(wmMilli) * opts.decreaseFactor);
    wmMilli = std::max(floor_m, next);
    lastShrink = now;
    watermarkDecreases.inc();
    if (tracer)
        tracer->instantNow("admission", "watermark_decrease", 0,
                           name_ + " -> " + std::to_string(wmMilli / 1000));
}

uint32_t
AdmissionController::tierThreshold(req::Criticality tier,
                                   uint32_t wm) const
{
    if (!opts.brownout || tier == req::Criticality::Critical)
        return wm;
    double frac = tier == req::Criticality::Sheddable
                      ? opts.sheddableFrac
                      : opts.defaultFrac;
    uint32_t t = uint32_t(double(wm) * frac);
    return t < 1 ? 1 : t;
}

uint32_t
AdmissionController::effectiveWatermarkAt(Cycles now) const
{
    if (!opts.adaptive)
        return opts.highWatermark;
    // Const view: replay the additive growth without committing it.
    uint64_t period = opts.increaseCycles.value();
    uint64_t wm = wmMilli;
    uint64_t t = now.value();
    if (period != 0 && t > lastGrow) {
        uint64_t steps = (t - lastGrow) / period;
        wm = std::min(uint64_t(opts.highWatermark) * 1000,
                      wm + steps * 1000);
    }
    return uint32_t(wm / 1000);
}

void
AdmissionController::drain(Bucket &b, uint64_t now) const
{
    if (now <= b.lastDrain) {
        b.lastDrain = now;
        return;
    }
    uint64_t leaked = (now - b.lastDrain) / opts.drainCycles.value();
    b.level = b.level > leaked ? b.level - leaked : 0;
    // Keep the remainder: advancing lastDrain only by whole drain
    // periods keeps the bucket an exact function of the cycle clock.
    b.lastDrain += leaked * opts.drainCycles.value();
}

bool
AdmissionController::admit(Cycles now, uint32_t client_id,
                           uint32_t tenant, req::Criticality tier,
                           trace::Tracer *tracer)
{
    auto shedOne = [&](const std::string &why) {
        shed.inc();
        shedByTier[size_t(tier)].inc();
        if (tracer)
            tracer->instantNow("admission", "shed", 0, name_ + why);
        return false;
    };
    uint64_t t = now.value();
    drain(global, t);
    if (opts.adaptive)
        growWatermark(t);

    Bucket *client = nullptr;
    if (opts.clientShare != 0 && client_id != 0) {
        client = &perClient[client_id];
        drain(*client, t);
        if (client->level >= opts.clientShare) {
            // This client already owns its fair share of the queue.
            shedFairShare.inc();
            return shedOne(" fair-share");
        }
    }
    Bucket *tb = nullptr;
    if (opts.tenantShare != 0) {
        tb = &perTenant[tenant];
        drain(*tb, t);
        if (tb->level >= opts.tenantShare) {
            // This tenant already owns its fair share of the shared
            // queue; shedding here keeps its retry storm from
            // starving other tenants of the shared service.
            shedTenantShare.inc();
            return shedOne(" tenant-share");
        }
    }
    uint32_t wm = opts.adaptive ? uint32_t(wmMilli / 1000)
                                : opts.highWatermark;
    if (global.level >= tierThreshold(tier, wm)) {
        shedOne(opts.brownout
                    ? std::string(" brownout ") + req::criticalityName(tier)
                    : " overload");
        if (opts.adaptive)
            // A shed at the (tier-scaled) watermark is the capacity
            // signal AIMD reacts to; fair-share sheds above are
            // isolation, not capacity, and do not shrink anything.
            shrinkWatermark(t, tracer);
        return false;
    }
    global.level++;
    if (client)
        client->level++;
    if (tb)
        tb->level++;
    admitted.inc();
    return true;
}

void
AdmissionController::reset()
{
    global = Bucket{};
    perClient.clear();
    perTenant.clear();
    // Restart-time reset extends to the AIMD state: the capacity dip
    // the watermark was tracking died with the old instance.
    wmMilli = uint64_t(opts.highWatermark) * 1000;
    lastGrow = 0;
    lastShrink = 0;
}

void
AdmissionController::resetTenant(uint32_t tenant)
{
    perTenant.erase(tenant);
}

uint64_t
AdmissionController::tenantBacklogAt(Cycles now, uint32_t tenant) const
{
    auto it = perTenant.find(tenant);
    if (it == perTenant.end())
        return 0;
    Bucket b = it->second;
    drain(b, now.value());
    return b.level;
}

uint64_t
AdmissionController::backlogAt(Cycles now) const
{
    Bucket b = global;
    drain(b, now.value());
    return b.level;
}

} // namespace xpc::services
