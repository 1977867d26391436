/**
 * @file
 * SLO health observability: regime classification over windowed
 * goodput curves, metastable-failure onset detection, and
 * recovery-time telemetry (DESIGN.md §4i).
 *
 * The open-loop harness (sim/timeseries + apps/loadgen) can *record*
 * overload dynamics; this layer makes them interpretable. An SloSpec
 * states what "healthy" means for one (tenant, service) - a goodput
 * floor relative to a calibrated capacity knee, optionally a p99
 * latency target - and a RegimeTracker classifies every time-series
 * window into one of three regimes:
 *
 *   healthy     goodput meets the floor (or the window is idle);
 *   overloaded  goodput misses the floor while offered load exceeds
 *               the knee - degradation the load fully explains, which
 *               admission control is expected to ride out;
 *   metastable  offered load is back *below* the knee yet goodput
 *               stays below the floor for K consecutive windows - the
 *               sustained-feedback signature of retry storms and open
 *               circuit breakers, a state that will not heal on its
 *               own (Bronson et al., "Metastable Failures in
 *               Distributed Systems").
 *
 * The K-window onset debounce keeps a single bad window from being
 * promoted to a failure regime, and leaving Metastable takes M
 * consecutive healthy windows (exit hysteresis), so the classifier
 * never flaps on boundary values. Every transition is logged with its
 * window and cycle, exportable as Perfetto instants beside the causal
 * trace, and counted in the stats registry.
 *
 * Recovery time - the metric the crash-mid-surge experiment reports -
 * is measured from a named mark (fault injected, surge over, heal
 * ran) to the *start of the first sustained healthy run*: the first
 * window opening M consecutive windows whose raw health condition
 * holds. NaN when the run never becomes healthy again, which is
 * exactly what distinguishes "slow recovery" from "trapped".
 *
 * Everything here is a pure function of the fed window values, costs
 * no simulated cycles, and is default-off: nothing on the paper path
 * constructs a tracker, so fig05/fig06 stay byte-identical.
 */

#ifndef XPC_SIM_SLO_HH
#define XPC_SIM_SLO_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/timeseries.hh"
#include "sim/types.hh"

namespace xpc::trace {
class Tracer;
}

namespace xpc::slo {

/** Health regime of one time-series window. */
enum class Regime : uint8_t
{
    Healthy,
    Overloaded,
    Metastable,
};
constexpr size_t regimeCount = 3;
const char *regimeName(Regime r);
/** One-letter code used in the compact JSON timeline. */
char regimeCode(Regime r);

/** What "healthy" means for one (tenant, service) or an aggregate. */
struct SloSpec
{
    /**
     * Calibrated capacity knee, requests per Mcycle (the deadline-
     * free goodput ceiling bench_tail measures). 0 disables the
     * whole layer: nothing is classified, nothing is emitted.
     */
    double kneePerMcycle = 0;
    /** Optional p99 latency target in cycles (0 = goodput only). */
    uint64_t p99TargetCycles = 0;
    /** Consecutive degraded-below-knee windows before Metastable. */
    uint32_t metastableWindows = 3;
    /** Consecutive healthy windows to leave Metastable ("sustained
     *  healthy", also the recovery-time endpoint). */
    uint32_t healthyWindows = 2;
    /**
     * observeSeries() sums this many consecutive series windows into
     * one observation. Narrow telemetry windows (good for curves)
     * hold too few requests to classify: at half the knee a 100
     * kcycle window sees single-digit arrivals, and Poisson noise
     * plus the arrival-to-completion lag produces degraded-looking
     * windows in a perfectly healthy mesh. Smoothing trades regime-
     * boundary resolution for counting statistics the floor fraction
     * can survive.
     */
    uint32_t smoothWindows = 1;

    bool enabled() const { return kneePerMcycle > 0; }
};

/** One regime change, stamped with its window and start cycle. */
struct Transition
{
    size_t window = 0;
    uint64_t cycle = 0;
    Regime from = Regime::Healthy;
    Regime to = Regime::Healthy;
};

/** A named timeline annotation (fault injected, surge over, ...). */
struct Mark
{
    std::string name;
    uint64_t cycle = 0;
};

/**
 * The windowed evaluator: feed per-window offered/goodput counts (in
 * window order) and read back the regime timeline, the transition
 * log, and recovery times relative to marks.
 */
class RegimeTracker
{
  public:
    RegimeTracker(std::string label, const SloSpec &spec,
                  Cycles window_cycles);

    const std::string &label() const { return trackerLabel; }
    const SloSpec &spec() const { return sloSpec; }
    /** Cycles per *observation*: the series window width times
     *  SloSpec::smoothWindows. */
    uint64_t windowCycles() const { return window; }

    /**
     * Classify the next window (windows are consecutive from 0).
     * @p offered / @p goodput are absolute counts in the window;
     * @p p99 is the window's p99 latency in cycles (NaN = no latency
     * signal, the latency target then never fails the window).
     */
    Regime observe(double offered, double goodput,
                   double p99 = std::numeric_limits<double>::quiet_NaN());

    /**
     * Replay a whole TimeSeries pair of counter channels through
     * observe(), one call per materialized window.
     */
    void observeSeries(const TimeSeries &ts,
                       TimeSeries::ChannelId offered,
                       TimeSeries::ChannelId goodput);

    /** Annotate the timeline (fault end, surge end, heal, ...). */
    void mark(std::string name, uint64_t cycle);

    const std::vector<Regime> &windows() const { return regimes; }
    const std::vector<Transition> &transitions() const
    {
        return transitionLog;
    }
    const std::vector<Mark> &marks() const { return markLog; }

    /** Did any window classify as Metastable? */
    bool sawMetastable() const
    {
        return windowsMetastable.value() > 0;
    }

    /**
     * Cycles from @p cycle to the start of the first sustained
     * healthy run (healthyWindows consecutive raw-healthy windows
     * *with demand*) beginning at or after it; 0 when @p cycle
     * already sits inside one, NaN when the timeline never becomes
     * healthy again. Idle windows (nothing offered) classify as
     * healthy in the regime timeline but witness nothing here: a
     * trapped mesh draining its queue after the last arrival must
     * not read as "recovered".
     */
    double recoveryCyclesFrom(uint64_t cycle) const;

    /**
     * Stable JSON: spec, compact regime timeline ("hhoomm..."),
     * per-regime window counts, the transition log, and every mark
     * with its recovery time (NaN -> null).
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

    /**
     * Emit the transition log and marks as Perfetto "slo" instants
     * onto lane @p tid, so regime flips land beside the causal trace
     * and the counter tracks. No-op while the tracer is disabled.
     */
    void exportTrace(trace::Tracer &tracer, uint32_t tid) const;

    /** Registry node "<label>" holding the counters below. */
    StatGroup stats;
    Counter windowsHealthy;
    Counter windowsOverloaded;
    Counter windowsMetastable;
    Counter transitionCount;
    /** Transitions *into* Metastable (the onsets the layer exists
     *  to detect). */
    Counter metastableOnsets;

  private:
    /** Raw per-window health condition, before debounce/hysteresis:
     *  what recovery-time scans look for. */
    std::vector<uint8_t> rawHealthy;
    /** Whether the window saw any offered load: only windows with
     *  demand can witness recovery. */
    std::vector<uint8_t> rawDemand;

    std::string trackerLabel;
    SloSpec sloSpec;
    uint64_t window;

    std::vector<Regime> regimes;
    std::vector<Transition> transitionLog;
    std::vector<Mark> markLog;

    Regime current = Regime::Healthy;
    uint32_t degradedStreak = 0;
    uint32_t healthyStreak = 0;
};

} // namespace xpc::slo

#endif // XPC_SIM_SLO_HH
