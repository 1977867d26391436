/**
 * @file
 * Metastable-failure and crash-recovery experiments over the SLO
 * health layer (DESIGN.md §4i, ROADMAP item 3).
 *
 * Two experiments, both phased runs of the open-loop generator with
 * a calibrated knee attached so every window is classified healthy /
 * overloaded / metastable:
 *
 * 1. Load hysteresis. Ramp offered load past the knee (2x) and back
 *    below it (0.5x), twice: once with the default mesh (baseline -
 *    goodput recovers as soon as load drops, the detector must stay
 *    quiet) and once with circuit breakers armed and a cooldown far
 *    past the run length. In that run the surge's admission sheds
 *    trip the breakers, and because they never probe half-open again
 *    every later call short-circuits: offered load returns below the
 *    knee but goodput stays trapped - the sustained-feedback
 *    signature of Bronson et al.'s metastable failures. The detector
 *    must flag it, and the post-surge goodput fraction quantifies the
 *    trap.
 *
 * 2. Crash-mid-surge. Kill tenant A's kv service at peak load and
 *    measure recovery time (fault mark -> first sustained healthy
 *    window) with supervision on and off. With autoHeal the next
 *    retry resurrects the service and recovery is finite; without it
 *    the service stays dead and recovery is null (never) - the
 *    difference *is* the supervisor's contribution, in cycles.
 *
 * 3. Retry storm. Kill tenant A's fs server mid-surge (no healing)
 *    under the deep 8-attempt retry ladder. Unbudgeted, every doomed
 *    fs request serializes its whole backoff ladder on the shared
 *    core and the post-surge mesh never recovers - retry
 *    amplification sustaining a metastable trap. With the per-
 *    (tenant, service) retry budget the amplification stops at the
 *    initial allowance and the same schedule escapes: the detector
 *    (unchanged from PR 8) is the judge of both.
 *
 * Everything is seeded. The bench prints every run's regime
 * timelines (BENCH_metastable.json embeds them too) and declares the
 * acceptance claims - detector separation, recovery heal-on vs
 * heal-off, the storm trap vs the budget's escape, byte-identical
 * same-seed replays - which the report checks when it is written.
 */

#include <sstream>

#include "apps/loadgen.hh"
#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

constexpr uint64_t expSeed = 42;

/** Deadline-free run at an absurd offered rate: goodput == capacity
 *  (the same calibration bench_tail uses). The mix is a parameter
 *  because capacity depends on it: the retry-storm experiment runs
 *  fs-heavy and needs a knee calibrated for *that* mix. */
double
calibrateCapacity(uint32_t kv = 6, uint32_t http = 3, uint32_t fs = 1)
{
    apps::LoadGenOptions o;
    o.seed = expSeed;
    o.offeredPerMcycle = 5000;
    o.requests = 600;
    o.deadlineCycles = Cycles(0);
    o.kvWeight = kv;
    o.httpWeight = http;
    o.fsWeight = fs;
    apps::LoadGen gen(o);
    return gen.run().goodputPerMcycle();
}

/** The shared ramp: below knee, surge past it, back below. */
std::vector<apps::LoadPhase>
hysteresisPhases(double knee)
{
    return {
        {0.5 * knee, 500, "ramp_up"},
        {2.0 * knee, 1000, "surge_end"},
        {0.5 * knee, 1500, ""},
    };
}

apps::LoadGenOptions
hysteresisOptions(double knee, bool trapped)
{
    apps::LoadGenOptions o;
    o.seed = expSeed;
    o.phases = hysteresisPhases(knee);
    o.slo.kneePerMcycle = knee;
    // 10 x 100 kcycle telemetry windows per observation: ~70
    // requests at the 0.5x legs, enough counting statistics that the
    // 0.7 floor only fails on real degradation.
    o.slo.smoothWindows = 10;
    if (trapped) {
        // The feedback loop: sheds feed noteFailure(), the breakers
        // open during the surge, and a cooldown longer than the whole
        // run means they never probe their way closed again.
        o.breakers = true;
        o.breakerCooldownCycles = Cycles(1000000000);
    }
    return o;
}

std::string
resultJson(const apps::LoadGenOptions &o)
{
    apps::LoadGen gen(o);
    std::ostringstream os;
    gen.run().dumpJson(os);
    return os.str();
}

/** Mean goodput rate (req/Mcycle) over the run's last N windows:
 *  the post-surge steady state the hysteresis claim is about. */
double
tailGoodputRate(const apps::LoadGenResult &res,
                TimeSeries::ChannelId goodput_ch, size_t last_n)
{
    size_t n = res.series.windowCount();
    if (n == 0)
        return 0;
    size_t from = n > last_n ? n - last_n : 0;
    double sum = 0;
    size_t cnt = 0;
    for (size_t w = from; w < n; w++) {
        double v = res.series.at(goodput_ch, w);
        if (std::isfinite(v)) {
            sum += v;
            cnt++;
        }
    }
    if (cnt == 0)
        return 0;
    return (sum / double(cnt)) * 1e6 /
           double(res.config.windowCycles.value());
}

void
sloSection(BenchReport &report, const std::string &key,
           const apps::LoadGenResult &res)
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < res.sloTrackers.size(); i++) {
        os << (i ? "," : "") << "\n    "
           << json::str(res.sloTrackers[i]->label()) << ": ";
        res.sloTrackers[i]->dumpJson(os, 0);
    }
    os << "\n  }";
    report.section(key, os.str());
}

/** The regime timeline of the aggregate tracker, with its marks by
 *  window, and of every per-service tracker that was not healthy
 *  throughout. */
void
printTimelines(BenchReport &report, const std::string &run,
               const apps::LoadGenResult &res)
{
    Table t(report,
            "Regime timelines, " + run +
                " (h healthy / o overloaded / m metastable)",
            {{"tracker"}, {"regimes"}, {"marks"}});
    for (const auto &tr : res.sloTrackers) {
        bool all = tr.get() == res.sloAll();
        if (!all && tr->windowsHealthy.value() == tr->windows().size())
            continue;
        std::string codes, marks;
        for (slo::Regime r : tr->windows())
            codes += slo::regimeCode(r);
        for (const slo::Mark &m : tr->marks())
            if (all)
                marks += (marks.empty() ? "" : ", ") + m.name + "@w" +
                         std::to_string(m.cycle / tr->windowCycles());
        t.row(tr->label(), {"|" + codes + "|", marks});
    }
    t.print();
}

void
runHysteresis(BenchReport &report, double knee)
{
    Table t(report, "Load hysteresis: ramp past the knee and back",
            {{"run"},
             {"goodput", "%.1f", "hysteresis.*.goodput_per_mcycle"},
             {"tail-goodput", "%.2f", "hysteresis.*.tail_goodput_frac"},
             {"metastable", "yes/no", "hysteresis.*.metastable_flagged"},
             {"m-windows", "%.0f", "hysteresis.*.metastable_windows"},
             {"transitions", "%.0f", "hysteresis.*.transitions"},
             {"recovery", "%.0f", "hysteresis.*.surge_recovery_cycles"}});
    for (bool trapped : {false, true}) {
        std::string tag = trapped ? "trapped" : "baseline";
        apps::LoadGen gen(hysteresisOptions(knee, trapped));
        const apps::LoadGenResult &res = gen.run();
        const slo::RegimeTracker *all = res.sloAll();
        panic_if(!all, "slo layer did not run");

        // The post-surge steady state: offered is back at 0.5x knee,
        // so a recovered mesh serves ~0.5x knee and a trapped one
        // serves a small fraction of it.
        TimeSeries::ChannelId goodput_ch = 0;
        panic_if(!res.series.findChannel("goodput", goodput_ch),
                 "loadgen stopped recording a goodput channel");
        double tail_rate = tailGoodputRate(res, goodput_ch, 10);
        double tail_frac = knee > 0 ? tail_rate / (0.5 * knee) : 0;

        double surge_rec = std::numeric_limits<double>::quiet_NaN();
        for (const slo::Mark &m : all->marks())
            if (m.name == "surge_end")
                surge_rec = all->recoveryCyclesFrom(m.cycle);
        report.distribution("hysteresis." + tag + ".latency",
                            res.latencyAll);
        sloSection(report, "slo_hysteresis_" + tag, res);
        printTimelines(report, "hysteresis " + tag, res);
        t.row(tag, {res.goodputPerMcycle(), tail_frac,
                    double(all->sawMetastable()),
                    double(all->windowsMetastable.value()),
                    double(all->transitionCount.value()), surge_rec});
    }
    t.print();
    report.hostMark("hysteresis");
}

void
runCrashMidSurge(BenchReport &report, double knee)
{
    Table t(report, "Crash-mid-surge: kill kv at peak load",
            {{"run"},
             {"goodput", "%.1f", "crash.*.goodput_per_mcycle"},
             {"restarts", "%.0f", "crash.*.restarts"},
             {"restart-lat", "%.0f", "crash.*.restart_latency_cycles"},
             {"recovery", "%.0f", "crash.*.recovery_cycles"},
             {"kv@t1 metastable", "yes/no", "crash.*.victim_metastable"}});
    for (bool healing : {true, false}) {
        std::string tag = healing ? "heal_on" : "heal_off";
        apps::LoadGenOptions o;
        o.seed = expSeed;
        o.phases = {
            {0.5 * knee, 400, ""},
            {1.5 * knee, 800, "surge_end"},
            {0.5 * knee, 1200, ""},
        };
        o.slo.kneePerMcycle = knee;
        o.slo.smoothWindows = 10;
        // Kill mid-surge: request 800 sits in the middle of the
        // surge phase (400 + 800/2).
        o.killAtRequest = 800;
        o.killTenant = apps::TenantRig::tenantA;
        o.killService = 5; // kv, 60% of the offered mix
        o.healing = healing;
        // Without healing a single attempt just fails; keep the
        // default retry ladder so heal_on actually heals.
        o.maxAttempts = healing ? 3 : 1;

        apps::LoadGen gen(o);
        const apps::LoadGenResult &res = gen.run();
        const slo::RegimeTracker *all = res.sloAll();
        // The victim's own tracker: the aggregate dilutes a dead
        // kv@t1 behind tenant B's healthy traffic, but the
        // per-service timeline shows the outage undiluted.
        const slo::RegimeTracker *victim = res.sloFor("kv@t1");
        panic_if(!all || !victim, "slo layer did not run");

        double fault_rec = std::numeric_limits<double>::quiet_NaN();
        for (const slo::Mark &m : victim->marks())
            if (m.name == "fault")
                fault_rec = victim->recoveryCyclesFrom(m.cycle);

        // Finer than the SLO windows: cycles from the kill to the
        // supervisor's restart of the victim (NaN when it never
        // comes back).
        double restart_lat = std::numeric_limits<double>::quiet_NaN();
        uint64_t fault_cycle = 0;
        for (const slo::Mark &m : res.marks) {
            if (m.name == "fault")
                fault_cycle = m.cycle;
            else if (fault_cycle != 0 && !std::isfinite(restart_lat) &&
                     m.name.rfind("restart:", 0) == 0)
                restart_lat = double(m.cycle - fault_cycle);
        }

        report.distribution("crash." + tag + ".latency", res.latencyAll);
        sloSection(report, "slo_crash_" + tag, res);
        printTimelines(report, "crash " + tag, res);
        t.row(tag, {res.goodputPerMcycle(),
                    double(gen.rig().supervisor().restarts.value()),
                    restart_lat, fault_rec,
                    double(victim->sawMetastable())});
    }
    t.print();
    report.hostMark("crash_mid_surge");
}

/** The retry-storm mix: fs-heavy (30%) so ~15% of all requests are
 *  doomed once tenant A's fs server dies. Each doomed request's
 *  backoff ladder (~140 kcycles with jitter) serializes on the
 *  shared core against a ~6 kcycle mean service time: the
 *  amplification demand is several times the spare capacity, which
 *  is what makes the unbudgeted trap decisive. */
constexpr uint32_t stormKv = 5, stormHttp = 2, stormFs = 3;

apps::LoadGenOptions
retryStormOptions(double knee, bool budgeted)
{
    apps::LoadGenOptions o;
    o.seed = expSeed;
    o.phases = hysteresisPhases(knee);
    o.slo.kneePerMcycle = knee;
    o.slo.smoothWindows = 10;
    // Patient callers: the arrival-anchored deadline abandons doomed
    // requests before their ladders burn, throttling exactly the
    // feedback loop this experiment measures. With no client
    // deadline the storm runs unthrottled; callWithRetry's own
    // per-operation budget (policy.deadlineCycles) still bounds
    // every individual ladder, and idle drain-out windows cannot
    // fake a recovery (recoveryCyclesFrom requires demand).
    o.deadlineCycles = Cycles(0);
    o.kvWeight = stormKv;
    o.httpWeight = stormHttp;
    o.fsWeight = stormFs;
    // Kill tenant A's fs server mid-surge and never heal it. Losing
    // it outright costs ~15% of aggregate goodput - well above the
    // 0.7 SLO floor, so the *outage* alone cannot flag anything.
    // What the experiment measures is the retry amplification: with
    // the deep 8-attempt ladder every doomed fs request serializes
    // its whole backoff ladder on the shared core, and at post-surge
    // 0.5x load those requests keep arriving faster than they burn
    // off - the mesh stays trapped although the offered load
    // dropped. A retry budget caps the amplification at the initial
    // allowance and the same schedule escapes.
    o.killAtRequest = 1000;
    o.killTenant = apps::TenantRig::tenantA;
    o.killService = 1; // fs, 30% of the offered mix
    o.healing = false;
    o.maxAttempts = 8;
    o.retryBudget.enabled = budgeted;
    return o;
}

void
runRetryStorm(BenchReport &report, double knee)
{
    Table t(report,
            "Retry storm: unbudgeted vs budgeted retries, fs killed "
            "mid-surge",
            {{"run"},
             {"goodput", "%.1f", "retry_storm.*.goodput_per_mcycle"},
             {"tail-goodput", "%.2f", "retry_storm.*.tail_goodput_frac"},
             {"retries", "%.0f", "retry_storm.*.retries"},
             {"budget-stops", "%.0f", "retry_storm.*.budget_exhausted"},
             {"metastable", "yes/no", "retry_storm.*.metastable_flagged"},
             {"recovery", "%.0f", "retry_storm.*.surge_recovery_cycles"}});
    for (bool budgeted : {false, true}) {
        std::string tag = budgeted ? "budgeted" : "unbudgeted";
        apps::LoadGen gen(retryStormOptions(knee, budgeted));
        const apps::LoadGenResult &res = gen.run();
        const slo::RegimeTracker *all = res.sloAll();
        panic_if(!all, "slo layer did not run");

        TimeSeries::ChannelId goodput_ch = 0;
        panic_if(!res.series.findChannel("goodput", goodput_ch),
                 "loadgen stopped recording a goodput channel");
        double tail_rate = tailGoodputRate(res, goodput_ch, 10);
        double tail_frac = knee > 0 ? tail_rate / (0.5 * knee) : 0;

        double surge_rec = std::numeric_limits<double>::quiet_NaN();
        for (const slo::Mark &m : all->marks())
            if (m.name == "surge_end")
                surge_rec = all->recoveryCyclesFrom(m.cycle);

        services::Supervisor &sup = gen.rig().supervisor();
        report.distribution("retry_storm." + tag + ".latency",
                            res.latencyAll);
        sloSection(report, "slo_retry_storm_" + tag, res);
        printTimelines(report, "retry storm " + tag, res);
        t.row(tag, {res.goodputPerMcycle(), tail_frac,
                    double(sup.retries.value()),
                    double(sup.retryBudgetExhausted.value()),
                    double(all->sawMetastable()), surge_rec});
    }
    t.print();
    report.hostMark("retry_storm");
}

void
printTable()
{
    BenchReport report("metastable");

    double knee = calibrateCapacity();
    report.hostMark("calibrate");
    report.config("seed", double(expSeed));
    Table cap(report, "", {{""}, {"", "%.1f req/Mcycle", "*"}});
    cap.row("calibrated knee", "capacity_per_mcycle", {knee});
    cap.print();

    runHysteresis(report, knee);
    runCrashMidSurge(report, knee);

    double storm_knee = calibrateCapacity(stormKv, stormHttp, stormFs);
    Table storm_cap(report, "Retry storm: an fs-heavy mix",
                    {{""}, {"", "%.1f req/Mcycle", "*"}});
    storm_cap.row("retry-storm knee (fs-heavy mix)",
                  "retry_storm.capacity_per_mcycle", {storm_knee});
    storm_cap.print();
    runRetryStorm(report, storm_knee);

    // Determinism: the trapped run - breakers, phased ramps, SLO
    // timeline and all - and the budgeted storm's control loop (token
    // buckets and all) must replay byte-identically.
    Table replay(report, "Same-seed replays",
                 {{"run"}, {"byte-identical", "yes/no", "*"}});
    replay.row("trapped hysteresis", "same_seed_identical",
               {double(resultJson(hysteresisOptions(knee, true)) ==
                       resultJson(hysteresisOptions(knee, true)))});
    replay.row("budgeted retry storm", "retry_storm.same_seed_identical",
               {double(resultJson(retryStormOptions(storm_knee, true)) ==
                       resultJson(retryStormOptions(storm_knee, true)))});
    replay.print();
    report.hostMark("replay_check");

    report.atLeast("same_seed_identical", 1);
    report.atLeast("retry_storm.same_seed_identical", 1);
    report.atMost("hysteresis.trapped.tail_goodput_frac", 0.7);
    report.atLeast("hysteresis.trapped.metastable_flagged", 1);
    report.never("hysteresis.trapped.surge_recovery_cycles");
    report.atMost("hysteresis.baseline.metastable_flagged", 0);
    report.atLeast("hysteresis.baseline.tail_goodput_frac", 0.7);
    report.finite("hysteresis.baseline.surge_recovery_cycles");
    report.atLeast("crash.heal_on.restart_latency_cycles", 1);
    report.finite("crash.heal_on.recovery_cycles");
    report.atMost("crash.heal_on.victim_metastable", 0);
    report.never("crash.heal_off.restart_latency_cycles");
    report.never("crash.heal_off.recovery_cycles");
    report.atLeast("crash.heal_off.victim_metastable", 1);
    report.atLeast("retry_storm.unbudgeted.metastable_flagged", 1);
    report.never("retry_storm.unbudgeted.surge_recovery_cycles");
    report.atMost("retry_storm.budgeted.metastable_flagged", 0);
    report.finite("retry_storm.budgeted.surge_recovery_cycles");
    report.less("retry_storm.budgeted.retries",
                "retry_storm.unbudgeted.retries");
    report.less("retry_storm.unbudgeted.tail_goodput_frac",
                "retry_storm.budgeted.tail_goodput_frac");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
