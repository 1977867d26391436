/**
 * @file
 * Goodput-vs-offered-load sweep over the open-loop generator: the
 * experiment that finally *measures* the overload machinery (PR 4's
 * admission, deadlines, abandonment) doing its job.
 *
 * The bench first calibrates the mesh's capacity - the goodput of a
 * deadline-free run offered far more load than it can serve - then
 * sweeps offered load across multiples of that capacity and reports,
 * per point, the goodput and the per-service latency histograms
 * (p50/p99/p999). The table to look for: below the knee goodput
 * tracks offered load and tails grow smoothly; past the knee goodput
 * *saturates* near capacity while abandonment absorbs the excess -
 * it must not collapse. A same-seed replay of the 1.0x point must be
 * byte-identical; both claims are exported as metrics the analyzer
 * (tools/latency.py --check) gates on.
 *
 * A second sweep runs the same points with circuit breakers armed
 * (the rig's default 60 kcycle cooldown): admission sheds feed
 * noteFailure(), so past the knee the breakers trip and requests
 * short-circuit instead of queueing toward a deadline they would
 * miss anyway. Below the knee the breakers never trip and both
 * curves coincide; past it quarantine reshapes the curve - measured,
 * per point, as goodput_per_mcycle.breakers.<tag>. The pathological
 * flip side (a cooldown that never re-probes, turning the same
 * breakers into a permanent metastable trap) is bench_metastable's
 * experiment.
 */

#include <sstream>

#include "apps/loadgen.hh"
#include "bench_util.hh"
#include "sim/logging.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

constexpr uint64_t sweepSeed = 42;
constexpr uint64_t sweepRequests = 1500;

apps::LoadGenOptions
optionsFor(double rate)
{
    apps::LoadGenOptions o;
    o.seed = sweepSeed;
    o.offeredPerMcycle = rate;
    o.requests = sweepRequests;
    return o;
}

/** Deadline-free run at an absurd offered rate: every request is
 *  eventually served, so goodput == the mesh's service capacity. */
double
calibrateCapacity()
{
    apps::LoadGenOptions o = optionsFor(5000);
    o.requests = 600;
    o.deadlineCycles = Cycles(0);
    apps::LoadGen gen(o);
    return gen.run().goodputPerMcycle();
}

std::string
runPointJson(const apps::LoadGenOptions &o)
{
    apps::LoadGen gen(o);
    std::ostringstream os;
    gen.run().dumpJson(os);
    return os.str();
}

/** The brownout sweep's configuration: criticality-tiered admission
 *  thresholds over a sheddable-heavy tier mix (25% critical / 25%
 *  default / 50% sheddable). Shedding the low tiers *early* is what
 *  keeps the backlog bounded, so the critical slice rides through 2x
 *  overload. (AIMD adaptation stays off here: it exists to track
 *  *capacity loss*, and halving every tier threshold under steady
 *  overload would shed critical bursts too - it gets its own
 *  identity gate and unit tests instead.) */
apps::LoadGenOptions
brownoutOptionsFor(double rate)
{
    apps::LoadGenOptions o = optionsFor(rate);
    o.tierCriticalWeight = 1;
    o.tierDefaultWeight = 1;
    o.tierSheddableWeight = 2;
    o.admission.brownout = true;
    // Admission only differentiates tiers when it is the binding
    // resource. The default 2 kcycle drain models a queue far faster
    // than any one service actually is, so overload loss shows up as
    // tier-blind client-side abandonment instead of sheds. 40
    // kcycles per slot ~= one front-door service's share of the
    // calibrated capacity: past the knee the *queue* sheds the
    // excess - lowest tier first - and the core never lags into the
    // abandon regime.
    o.admission.drainCycles = Cycles(40000);
    // One client thread per controller here, and the fair-share cap
    // (8) sits below the Default tier threshold (0.8 x 12 = 9): it
    // would shed tier-blind before the brownout ladder could act.
    // Fair share is cross-client isolation; this rig has nothing to
    // isolate.
    o.admission.clientShare = 0;
    // Patient-but-bounded callers. Even a shed costs the serial core
    // a relay round-trip, so at 2x the core lags behind the arrival
    // schedule; under the default 400 kcycle deadline that lag
    // abandons requests tier-blind and masks the tiered sheds this
    // sweep exists to measure. 6 Mcycles outlasts the worst lag this
    // schedule accumulates (the table's abandoned column proving it
    // stays 0 is part of the claim) but is still finite, so a mesh
    // that actually hung would not silently pass.
    o.deadlineCycles = Cycles(6'000'000);
    return o;
}

void
printTable()
{
    BenchReport report("tail");
    banner("Goodput vs offered load (open-loop, 2 tenants, "
           "kv/httpd/fs mix)");

    double capacity = calibrateCapacity();
    report.hostMark("calibrate");
    report.metric("capacity_per_mcycle", capacity);
    report.config("seed", double(sweepSeed));
    report.config("requests", double(sweepRequests));
    std::printf("calibrated capacity: %.1f req/Mcycle\n\n", capacity);

    row({"offered/cap", "offered", "goodput", "ok", "shed", "timeout",
         "abandoned", "p99(kv)"},
        12);

    const double multipliers[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
    double goodput_at_1x = 0, goodput_at_2x = 0;
    for (double m : multipliers) {
        apps::LoadGen gen(optionsFor(m * capacity));
        const apps::LoadGenResult &res = gen.run();

        std::string tag = fmt("%g", m) + "x";
        report.metric("offered_per_mcycle." + tag,
                      res.offeredPerMcycleActual());
        report.metric("goodput_per_mcycle." + tag,
                      res.goodputPerMcycle());
        for (size_t i = 0; i < apps::loadOutcomeCount; i++)
            report.metric(
                std::string(
                    apps::loadOutcomeName(apps::LoadOutcome(i))) +
                    "." + tag,
                double(res.counts[i]));
        report.distribution(tag + ".all", res.latencyAll);
        for (size_t i = 0; i < 3; i++)
            report.distribution(
                tag + "." + apps::LoadGenResult::serviceNames[i],
                res.latencyService[i]);

        row({tag, fmt("%.1f", res.offeredPerMcycleActual()),
             fmt("%.1f", res.goodputPerMcycle()),
             fmtU(res.counts[size_t(apps::LoadOutcome::Ok)]),
             fmtU(res.counts[size_t(apps::LoadOutcome::Shed)]),
             fmtU(res.counts[size_t(apps::LoadOutcome::Timeout)]),
             fmtU(res.counts[size_t(apps::LoadOutcome::Abandoned)]),
             fmt("%.0f", res.latencyService[0].quantile(0.99))},
            12);

        if (m == 1.0)
            goodput_at_1x = res.goodputPerMcycle();
        if (m == 2.0)
            goodput_at_2x = res.goodputPerMcycle();
    }

    report.hostMark("sweep");

    // Saturation, not collapse: at 2x overload the mesh must still
    // deliver most of what it delivered at the knee.
    double retention =
        goodput_at_1x > 0 ? goodput_at_2x / goodput_at_1x : 0;
    report.metric("overload_goodput_retention", retention);
    std::printf("\n2x-overload goodput retention: %.2f "
                "(must stay >= 0.75: saturate, don't collapse)\n",
                retention);

    // The same sweep with breakers armed: sheds feed noteFailure(),
    // so overload trips the breakers and excess requests fail fast
    // instead of queueing. Measured, not asserted - the analyzer
    // renders both curves side by side.
    banner("Same sweep, circuit breakers armed");
    row({"offered/cap", "goodput", "breaker", "shed"}, 12);
    double breakers_at_2x = 0;
    for (double m : multipliers) {
        apps::LoadGenOptions o = optionsFor(m * capacity);
        o.breakers = true;
        apps::LoadGen gen(o);
        const apps::LoadGenResult &res = gen.run();
        std::string tag = fmt("%g", m) + "x";
        report.metric("goodput_per_mcycle.breakers." + tag,
                      res.goodputPerMcycle());
        report.metric(
            "breaker.breakers." + tag,
            double(res.counts[size_t(apps::LoadOutcome::Breaker)]));
        row({tag, fmt("%.1f", res.goodputPerMcycle()),
             fmtU(res.counts[size_t(apps::LoadOutcome::Breaker)]),
             fmtU(res.counts[size_t(apps::LoadOutcome::Shed)])},
            12);
        if (m == 2.0)
            breakers_at_2x = res.goodputPerMcycle();
    }
    double breaker_retention =
        goodput_at_1x > 0 ? breakers_at_2x / goodput_at_1x : 0;
    report.metric("overload_goodput_retention.breakers",
                  breaker_retention);
    std::printf("\n2x-overload retention with breakers: %.2f "
                "(vs %.2f without)\n",
                breaker_retention, retention);
    report.hostMark("breakers_sweep");

    // Brownout: the same sweep with the remediation layer's adaptive
    // admission + criticality tiers on. The claim is *differential*:
    // under overload the sheddable slice absorbs the loss and the
    // critical slice's served fraction holds its below-knee level.
    banner("Brownout sweep: criticality-tiered admission");
    row({"offered/cap", "goodput", "crit-ok", "def-ok", "shd-ok",
         "crit-shed", "abandoned"},
        12);
    auto servedFrac = [](const apps::LoadGenResult &res,
                         req::Criticality t) {
        uint64_t off = res.tierOffered[size_t(t)];
        return off == 0
                   ? 0.0
                   : double(res.tierOk[size_t(t)]) / double(off);
    };
    double crit_frac_low = 0, crit_frac_2x = 0;
    for (double m : multipliers) {
        apps::LoadGen gen(brownoutOptionsFor(m * capacity));
        const apps::LoadGenResult &res = gen.run();
        std::string tag = fmt("%g", m) + "x";
        double fc = servedFrac(res, req::Criticality::Critical);
        double fd = servedFrac(res, req::Criticality::Default);
        double fs = servedFrac(res, req::Criticality::Sheddable);
        uint64_t crit_shed =
            res.tierShed[size_t(req::Criticality::Critical)];
        report.metric("brownout.goodput_per_mcycle." + tag,
                      res.goodputPerMcycle());
        report.metric("brownout.served_frac.critical." + tag, fc);
        report.metric("brownout.served_frac.default." + tag, fd);
        report.metric("brownout.served_frac.sheddable." + tag, fs);
        report.metric("brownout.critical_sheds." + tag,
                      double(crit_shed));
        // Abandonment is the tier-blind failure mode; the sweep's
        // claim is only honest while this column stays ~0 and the
        // loss is tiered sheds instead.
        uint64_t abandoned =
            res.counts[size_t(apps::LoadOutcome::Abandoned)] +
            res.counts[size_t(apps::LoadOutcome::Timeout)];
        report.metric("brownout.abandoned." + tag,
                      double(abandoned));
        row({tag, fmt("%.1f", res.goodputPerMcycle()),
             fmt("%.2f", fc), fmt("%.2f", fd), fmt("%.2f", fs),
             fmtU(crit_shed), fmtU(abandoned)},
            12);
        if (m == 0.25)
            crit_frac_low = fc;
        if (m == 2.0)
            crit_frac_2x = fc;
    }
    // The headline gate: critical-tier goodput retention at 2x
    // overload, relative to its own below-knee service level.
    double crit_retention =
        crit_frac_low > 0 ? crit_frac_2x / crit_frac_low : 0;
    report.metric("brownout.critical_retention", crit_retention);
    std::printf("\n2x-overload critical-tier retention: %.2f "
                "(must stay >= 0.9: brownout, not blackout)\n",
                crit_retention);
    report.hostMark("brownout_sweep");

    // Same-seed replay of the 1.0x point must be byte-identical.
    std::string a = runPointJson(optionsFor(capacity));
    std::string b = runPointJson(optionsFor(capacity));
    bool identical = a == b;
    report.metric("same_seed_identical", identical ? 1 : 0);
    std::printf("same-seed replay byte-identical: %s\n",
                identical ? "yes" : "NO");
    panic_if(!identical, "same-seed loadgen replay diverged");

    // ... and so must the brownout 2x point, AIMD state and all.
    std::string ba = runPointJson(brownoutOptionsFor(2.0 * capacity));
    std::string bb = runPointJson(brownoutOptionsFor(2.0 * capacity));
    bool bident = ba == bb;
    report.metric("brownout.same_seed_identical", bident ? 1 : 0);
    std::printf("same-seed brownout replay byte-identical: %s\n",
                bident ? "yes" : "NO");
    panic_if(!bident, "same-seed brownout replay diverged");
    report.hostMark("replay_check");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
