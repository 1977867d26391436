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
 * Everything is seeded: a same-seed replay of the trapped run must be
 * byte-identical, and BENCH_metastable.json embeds the full regime
 * timelines for tools/metastable.py to render and gate (--check).
 */

#include <sstream>

#include "apps/loadgen.hh"
#include "bench_util.hh"
#include "sim/logging.hh"

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
        os << (i ? "," : "") << "\n    \""
           << res.sloTrackers[i]->label() << "\": ";
        res.sloTrackers[i]->dumpJson(os, 0);
    }
    os << "\n  }";
    report.section(key, os.str());
}

void
runHysteresis(BenchReport &report, double knee)
{
    banner("Load hysteresis: ramp past the knee and back");

    struct Leg
    {
        const char *tag;
        bool trapped;
    };
    const Leg legs[] = {{"baseline", false}, {"trapped", true}};

    row({"run", "goodput", "tail-goodput", "regime-tail", "metastable"},
        14);
    for (const Leg &leg : legs) {
        apps::LoadGen gen(hysteresisOptions(knee, leg.trapped));
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

        std::string t = leg.tag;
        report.metric("hysteresis." + t + ".goodput_per_mcycle",
                      res.goodputPerMcycle());
        report.metric("hysteresis." + t + ".tail_goodput_frac",
                      tail_frac);
        report.metric("hysteresis." + t + ".metastable_flagged",
                      all->sawMetastable() ? 1 : 0);
        report.metric("hysteresis." + t + ".metastable_windows",
                      double(all->windowsMetastable.value()));
        report.metric("hysteresis." + t + ".transitions",
                      double(all->transitionCount.value()));
        double surge_rec = std::numeric_limits<double>::quiet_NaN();
        for (const slo::Mark &m : all->marks())
            if (m.name == "surge_end")
                surge_rec = all->recoveryCyclesFrom(m.cycle);
        report.metric("hysteresis." + t + ".surge_recovery_cycles",
                      surge_rec);
        report.distribution("hysteresis." + t + ".latency",
                            res.latencyAll);
        sloSection(report, "slo_hysteresis_" + t, res);

        const auto &regs = all->windows();
        size_t show = regs.size() < 16 ? regs.size() : 16;
        std::string tail_codes;
        for (size_t w = regs.size() - show; w < regs.size(); w++)
            tail_codes += slo::regimeCode(regs[w]);
        row({t, fmt("%.1f", res.goodputPerMcycle()),
             fmt("%.2f", tail_frac), tail_codes,
             all->sawMetastable() ? "YES" : "no"},
            14);
    }
    report.hostMark("hysteresis");
}

void
runCrashMidSurge(BenchReport &report, double knee)
{
    banner("Crash-mid-surge: kill kv at peak load");

    struct Leg
    {
        const char *tag;
        bool healing;
    };
    const Leg legs[] = {{"heal_on", true}, {"heal_off", false}};

    row({"run", "goodput", "restarts", "restart-lat", "recovery"}, 16);
    for (const Leg &leg : legs) {
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
        o.healing = leg.healing;
        // Without healing a single attempt just fails; keep the
        // default retry ladder so heal_on actually heals.
        o.maxAttempts = leg.healing ? 3 : 1;

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

        uint64_t restarts =
            gen.rig().supervisor().restarts.value();
        std::string t = leg.tag;
        report.metric("crash." + t + ".goodput_per_mcycle",
                      res.goodputPerMcycle());
        report.metric("crash." + t + ".recovery_cycles", fault_rec);
        report.metric("crash." + t + ".restart_latency_cycles",
                      restart_lat);
        report.metric("crash." + t + ".restarts", double(restarts));
        report.metric("crash." + t + ".victim_metastable",
                      victim->sawMetastable() ? 1 : 0);
        report.distribution("crash." + t + ".latency", res.latencyAll);
        sloSection(report, "slo_crash_" + t, res);

        row({t, fmt("%.1f", res.goodputPerMcycle()), fmtU(restarts),
             std::isfinite(restart_lat) ? fmt("%.0f", restart_lat)
                                        : "never",
             std::isfinite(fault_rec) ? fmt("%.0f", fault_rec)
                                      : "never"},
            16);
    }
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
    banner("Retry storm: unbudgeted vs budgeted retries, fs killed "
           "mid-surge");

    struct Leg
    {
        const char *tag;
        bool budgeted;
    };
    const Leg legs[] = {{"unbudgeted", false}, {"budgeted", true}};

    row({"run", "goodput", "tail-goodput", "retries", "budget-stops",
         "recovery"},
        14);
    for (const Leg &leg : legs) {
        apps::LoadGen gen(retryStormOptions(knee, leg.budgeted));
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
        std::string t = leg.tag;
        report.metric("retry_storm." + t + ".goodput_per_mcycle",
                      res.goodputPerMcycle());
        report.metric("retry_storm." + t + ".tail_goodput_frac",
                      tail_frac);
        report.metric("retry_storm." + t + ".metastable_flagged",
                      all->sawMetastable() ? 1 : 0);
        report.metric("retry_storm." + t + ".surge_recovery_cycles",
                      surge_rec);
        report.metric("retry_storm." + t + ".retries",
                      double(sup.retries.value()));
        report.metric("retry_storm." + t + ".budget_exhausted",
                      double(sup.retryBudgetExhausted.value()));
        report.distribution("retry_storm." + t + ".latency",
                            res.latencyAll);
        sloSection(report, "slo_retry_storm_" + t, res);

        row({t, fmt("%.1f", res.goodputPerMcycle()),
             fmt("%.2f", tail_frac), fmtU(sup.retries.value()),
             fmtU(sup.retryBudgetExhausted.value()),
             std::isfinite(surge_rec) ? fmt("%.0f", surge_rec)
                                      : "never"},
            14);
    }

    // The budgeted run's control loop (token buckets and all) must
    // replay byte-identically, like the trapped hysteresis run.
    std::string a = resultJson(retryStormOptions(knee, true));
    std::string b = resultJson(retryStormOptions(knee, true));
    bool identical = a == b;
    report.metric("retry_storm.same_seed_identical", identical ? 1 : 0);
    panic_if(!identical, "same-seed budgeted replay diverged");
    report.hostMark("retry_storm");
}

void
printTable()
{
    BenchReport report("metastable");

    double knee = calibrateCapacity();
    report.hostMark("calibrate");
    report.metric("capacity_per_mcycle", knee);
    report.config("seed", double(expSeed));
    std::printf("calibrated knee: %.1f req/Mcycle\n", knee);

    runHysteresis(report, knee);
    runCrashMidSurge(report, knee);

    double storm_knee = calibrateCapacity(stormKv, stormHttp, stormFs);
    report.metric("retry_storm.capacity_per_mcycle", storm_knee);
    std::printf("retry-storm knee (fs-heavy mix): %.1f req/Mcycle\n",
                storm_knee);
    runRetryStorm(report, storm_knee);

    // Determinism: the trapped run - breakers, phased ramps, SLO
    // timeline and all - must replay byte-identically.
    std::string a = resultJson(hysteresisOptions(knee, true));
    std::string b = resultJson(hysteresisOptions(knee, true));
    bool identical = a == b;
    report.metric("same_seed_identical", identical ? 1 : 0);
    std::printf("\nsame-seed trapped replay byte-identical: %s\n",
                identical ? "yes" : "NO");
    panic_if(!identical, "same-seed metastable replay diverged");
    report.hostMark("replay_check");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
