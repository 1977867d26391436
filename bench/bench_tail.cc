/**
 * @file
 * Goodput-vs-offered-load sweep over the open-loop generator: the
 * experiment that *measures* the overload machinery (admission,
 * deadlines, abandonment) doing its job.
 *
 * The bench calibrates the mesh's capacity - the goodput of a
 * deadline-free run offered far more load than it can serve - then
 * sweeps offered load across multiples of it and prints, per point,
 * goodput, every outcome count and each service's p50/p99/p999.
 * Below the knee goodput tracks offered load and tails grow
 * smoothly; past it goodput *saturates* near capacity while
 * abandonment absorbs the excess. The same points then run with
 * circuit breakers armed (the rig's default cooldown: past the knee
 * they fail excess requests fast; the never-re-probing trap is
 * bench_metastable's) and with criticality-tiered brownout admission.
 * The claims - saturation (2x retention >= 0.75), brownout (critical
 * retention >= 0.9, no critical sheds below the knee, the loss on
 * the sheddable tier), percentiles present and byte-identical
 * same-seed replays - are checked when the report is written.
 */

#include <sstream>

#include "apps/loadgen.hh"
#include "bench_util.hh"

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
    double capacity = calibrateCapacity();
    report.hostMark("calibrate");
    report.config("seed", double(sweepSeed));
    report.config("requests", double(sweepRequests));
    Table cap(report,
              "Goodput vs offered load (open-loop, 2 tenants, "
              "kv/httpd/fs mix)",
              {{""}, {"", "%.1f req/Mcycle", "*"}});
    cap.row("calibrated capacity", "capacity_per_mcycle", {capacity});
    cap.print();

    std::vector<Col> cols = {{"offered/cap"},
                             {"offered", "%.1f", "offered_per_mcycle"},
                             {"goodput", "%.1f", "goodput_per_mcycle"}};
    for (size_t i = 0; i < apps::loadOutcomeCount; i++) {
        const char *outcome = apps::loadOutcomeName(apps::LoadOutcome(i));
        cols.push_back({outcome, "%.0f", outcome});
    }
    Table sweep(report, "", cols);
    const char *quantiles[] = {"p50", "p99", "p999"};
    cols = {{"offered/cap"}};
    for (const char *svc : apps::LoadGenResult::serviceNames)
        for (const char *q : quantiles)
            cols.push_back({std::string(svc) + " " + q, "%.0f",
                            std::string(q) + "." + svc});
    Table pct(report,
              "Per-service latency from arrival (cycles) at each point",
              cols);

    const double multipliers[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
    auto tagOf = [](double m) { return Col("", "%gx").show(m); };
    double goodput_at_1x = 0, goodput_at_2x = 0;
    for (double m : multipliers) {
        apps::LoadGen gen(optionsFor(m * capacity));
        const apps::LoadGenResult &res = gen.run();

        std::string tag = tagOf(m);
        std::vector<Cell> cells = {res.offeredPerMcycleActual(),
                                   res.goodputPerMcycle()};
        for (size_t i = 0; i < apps::loadOutcomeCount; i++)
            cells.push_back(double(res.counts[i]));
        sweep.row(tag, cells);
        cells.clear();
        for (size_t i = 0; i < 3; i++)
            for (double q : {0.5, 0.99, 0.999})
                cells.push_back(res.latencyService[i].quantile(q));
        pct.row(tag, cells);
        report.distribution(tag + ".all", res.latencyAll);
        for (size_t i = 0; i < 3; i++)
            report.distribution(
                tag + "." + apps::LoadGenResult::serviceNames[i],
                res.latencyService[i]);

        if (m == 1.0)
            goodput_at_1x = res.goodputPerMcycle();
        if (m == 2.0)
            goodput_at_2x = res.goodputPerMcycle();
    }
    sweep.print();
    pct.print();
    report.hostMark("sweep");

    // The same sweep with breakers armed: sheds feed noteFailure(),
    // so overload trips the breakers and excess requests fail fast
    // instead of queueing.
    Table brk(report, "Same sweep, circuit breakers armed",
              {{"offered/cap"},
               {"goodput", "%.1f", "goodput_per_mcycle.breakers"},
               {"breaker", "%.0f", "breaker.breakers"},
               {"shed", "%.0f", "shed.breakers"}});
    double breakers_at_2x = 0;
    for (double m : multipliers) {
        apps::LoadGenOptions o = optionsFor(m * capacity);
        o.breakers = true;
        apps::LoadGen gen(o);
        const apps::LoadGenResult &res = gen.run();
        brk.row(tagOf(m),
                {res.goodputPerMcycle(),
                 double(res.counts[size_t(apps::LoadOutcome::Breaker)]),
                 double(res.counts[size_t(apps::LoadOutcome::Shed)])});
        if (m == 2.0)
            breakers_at_2x = res.goodputPerMcycle();
    }
    brk.print();
    report.hostMark("breakers_sweep");

    // Brownout: the same sweep with the remediation layer's adaptive
    // admission + criticality tiers on. The claim is *differential*:
    // under overload the sheddable slice absorbs the loss and the
    // critical slice's served fraction holds its below-knee level.
    Table brown(report, "Brownout sweep: criticality-tiered admission",
                {{"offered/cap"},
                 {"goodput", "%.1f", "brownout.goodput_per_mcycle"},
                 {"crit-ok", "%.2f", "brownout.served_frac.critical"},
                 {"def-ok", "%.2f", "brownout.served_frac.default"},
                 {"shd-ok", "%.2f", "brownout.served_frac.sheddable"},
                 {"crit-shed", "%.0f", "brownout.critical_sheds"},
                 {"abandoned", "%.0f", "brownout.abandoned"}});
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
        double fc = servedFrac(res, req::Criticality::Critical);
        // Abandonment is the tier-blind failure mode; the sweep's
        // claim is only honest while this column stays 0 and the
        // loss is tiered sheds instead.
        uint64_t abandoned =
            res.counts[size_t(apps::LoadOutcome::Abandoned)] +
            res.counts[size_t(apps::LoadOutcome::Timeout)];
        brown.row(tagOf(m),
                  {res.goodputPerMcycle(), fc,
                   servedFrac(res, req::Criticality::Default),
                   servedFrac(res, req::Criticality::Sheddable),
                   double(res.tierShed[size_t(req::Criticality::Critical)]),
                   double(abandoned)});
        if (m == 0.25)
            crit_frac_low = fc;
        if (m == 2.0)
            crit_frac_2x = fc;
    }
    brown.print();
    report.hostMark("brownout_sweep");

    // Saturation, not collapse: at 2x overload the mesh must still
    // deliver most of what it delivered at the knee; and the critical
    // tier its below-knee service level.
    Table ret(report, "2x-overload retention", {{""}, {"", "%.2f", "*"}});
    ret.row("goodput, vs the 1x knee", "overload_goodput_retention",
            {goodput_at_1x > 0 ? goodput_at_2x / goodput_at_1x : 0});
    ret.row("goodput with breakers, vs the 1x knee",
            "overload_goodput_retention.breakers",
            {goodput_at_1x > 0 ? breakers_at_2x / goodput_at_1x : 0});
    ret.row("brownout critical-tier served fraction, vs 0.25x",
            "brownout.critical_retention",
            {crit_frac_low > 0 ? crit_frac_2x / crit_frac_low : 0});
    ret.print();

    // Same-seed replays of the 1.0x point and of the brownout 2x
    // point (AIMD state and all) must be byte-identical.
    Table replay(report, "Same-seed replays",
                 {{"run"}, {"byte-identical", "yes/no", "*"}});
    replay.row("1x point", "same_seed_identical",
               {double(runPointJson(optionsFor(capacity)) ==
                       runPointJson(optionsFor(capacity)))});
    replay.row("brownout 2x point", "brownout.same_seed_identical",
               {double(runPointJson(brownoutOptionsFor(2.0 * capacity)) ==
                       runPointJson(brownoutOptionsFor(2.0 * capacity)))});
    replay.print();
    report.hostMark("replay_check");

    report.atLeast("same_seed_identical", 1);
    report.atLeast("overload_goodput_retention", 0.75);
    report.finite("overload_goodput_retention.breakers");
    report.less("goodput_per_mcycle.2x", "goodput_per_mcycle.breakers.2x");
    report.atLeast("brownout.same_seed_identical", 1);
    report.atLeast("brownout.critical_retention", 0.9);
    report.less("brownout.served_frac.sheddable.2x",
                "brownout.served_frac.critical.2x");
    for (double m : multipliers) {
        std::string tag = tagOf(m);
        for (const char *svc : apps::LoadGenResult::serviceNames)
            for (const char *q : quantiles)
                report.finite(std::string(q) + "." + svc + "." + tag);
        report.atMost("brownout.abandoned." + tag, 0);
        if (m <= 1.0)
            report.atMost("brownout.critical_sheds." + tag, 0);
        if (m < 1.0)
            report.atMost("breaker.breakers." + tag, 0);
    }
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
