#include "slo.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace xpc::slo {

namespace {

constexpr double sloNaN = std::numeric_limits<double>::quiet_NaN();

/**
 * Goodput floor as a fraction of the *expected* goodput
 * min(offered, knee): below the knee a healthy mesh serves what it is
 * offered, above it a healthy mesh saturates at the knee.
 */
constexpr double goodputFloorFrac = 0.7;

} // namespace

const char *
regimeName(Regime r)
{
    switch (r) {
      case Regime::Healthy: return "healthy";
      case Regime::Overloaded: return "overloaded";
      case Regime::Metastable: return "metastable";
    }
    return "?";
}

char
regimeCode(Regime r)
{
    switch (r) {
      case Regime::Healthy: return 'h';
      case Regime::Overloaded: return 'o';
      case Regime::Metastable: return 'm';
    }
    return '?';
}

RegimeTracker::RegimeTracker(std::string label, const SloSpec &spec,
                             Cycles window_cycles)
    : stats(label), trackerLabel(std::move(label)), sloSpec(spec),
      window(window_cycles.value() *
             std::max<uint32_t>(1, spec.smoothWindows))
{
    panic_if(window == 0, "SLO window must be non-zero");
    panic_if(!spec.enabled(),
             "RegimeTracker needs a calibrated knee (> 0)");
    panic_if(spec.metastableWindows == 0 || spec.healthyWindows == 0,
             "debounce window counts must be >= 1");
    stats.addCounter("windows_healthy", &windowsHealthy);
    stats.addCounter("windows_overloaded", &windowsOverloaded);
    stats.addCounter("windows_metastable", &windowsMetastable);
    stats.addCounter("transitions", &transitionCount);
    stats.addCounter("metastable_onsets", &metastableOnsets);
}

Regime
RegimeTracker::observe(double offered, double goodput, double p99)
{
    const size_t w = regimes.size();
    const double scale = 1e6 / double(window);
    const double offered_rate = offered * scale;
    const double goodput_rate = goodput * scale;
    const double expected =
        std::min(offered_rate, sloSpec.kneePerMcycle);

    // The raw condition, before any debounce: the floor holds on >=,
    // so a window sitting exactly on the boundary is healthy and the
    // classifier cannot flap across it. A NaN p99 (no latency signal
    // this window) never fails the latency clause.
    const bool meets_goodput =
        goodput_rate >= goodputFloorFrac * expected;
    const bool meets_latency =
        sloSpec.p99TargetCycles == 0 ||
        !(p99 > double(sloSpec.p99TargetCycles));
    const bool healthy =
        offered <= 0 || (meets_goodput && meets_latency);
    rawHealthy.push_back(healthy ? 1 : 0);
    rawDemand.push_back(offered > 0 ? 1 : 0);

    Regime next;
    if (healthy) {
        healthyStreak++;
        degradedStreak = 0;
        // Exit hysteresis: one good window inside a retry storm is
        // noise, not recovery. Metastable holds until the healthy
        // streak is sustained.
        if (current == Regime::Metastable &&
            healthyStreak < sloSpec.healthyWindows)
            next = Regime::Metastable;
        else
            next = Regime::Healthy;
    } else {
        healthyStreak = 0;
        if (offered_rate > sloSpec.kneePerMcycle) {
            // Degradation the offered load fully explains. These
            // windows never count toward metastable onset: the
            // definition requires load *below* the knee.
            degradedStreak = 0;
            next = current == Regime::Metastable ? Regime::Metastable
                                                 : Regime::Overloaded;
        } else {
            degradedStreak++;
            next = (current == Regime::Metastable ||
                    degradedStreak >= sloSpec.metastableWindows)
                       ? Regime::Metastable
                       : Regime::Overloaded;
        }
    }

    if (next != current) {
        transitionLog.push_back({w, w * window, current, next});
        transitionCount.inc();
        if (next == Regime::Metastable)
            metastableOnsets.inc();
    }
    current = next;
    regimes.push_back(next);
    switch (next) {
      case Regime::Healthy: windowsHealthy.inc(); break;
      case Regime::Overloaded: windowsOverloaded.inc(); break;
      case Regime::Metastable: windowsMetastable.inc(); break;
    }
    return next;
}

void
RegimeTracker::observeSeries(const TimeSeries &ts,
                             TimeSeries::ChannelId offered,
                             TimeSeries::ChannelId goodput)
{
    const size_t smooth = std::max<uint32_t>(1, sloSpec.smoothWindows);
    panic_if(ts.windowCycles() * smooth != window,
             "series window (%llu) x smooth (%zu) != tracker window "
             "(%llu)",
             (unsigned long long)ts.windowCycles(), smooth,
             (unsigned long long)window);
    // Each observation sums `smooth` consecutive series windows; a
    // partial trailing group is observed as-is (its lower counts read
    // as a lower rate, which can only make the window look idle or
    // below-knee, never falsely overloaded).
    for (size_t w = 0; w < ts.windowCount(); w += smooth) {
        double off = 0, good = 0;
        for (size_t k = w; k < w + smooth && k < ts.windowCount();
             k++) {
            double o = ts.at(offered, k);
            double g = ts.at(goodput, k);
            if (std::isfinite(o))
                off += o;
            if (std::isfinite(g))
                good += g;
        }
        observe(off, good);
    }
}

void
RegimeTracker::mark(std::string name, uint64_t cycle)
{
    markLog.push_back({std::move(name), cycle});
}

double
RegimeTracker::recoveryCyclesFrom(uint64_t cycle) const
{
    const size_t need = sloSpec.healthyWindows;
    const size_t w0 = size_t(cycle / window);
    size_t streak = 0;
    for (size_t w = w0; w < rawHealthy.size(); w++) {
        // An idle window carries no evidence either way; it cannot
        // extend a healthy run (a drained-out queue is not a served
        // one) and resets the streak.
        streak = rawHealthy[w] && rawDemand[w] ? streak + 1 : 0;
        if (streak >= need) {
            const uint64_t start = (w + 1 - need) * window;
            return start <= cycle ? 0 : double(start - cycle);
        }
    }
    return sloNaN;
}

void
RegimeTracker::dumpJson(std::ostream &os, int indent) const
{
    const std::string pad(size_t(indent), ' ');
    os << pad << "{\"label\":" << json::str(trackerLabel) << ",\"spec\":{"
       << "\"knee_per_mcycle\":" << json::num(sloSpec.kneePerMcycle)
       << ",\"goodput_floor\":" << json::num(goodputFloorFrac)
       << ",\"p99_target_cycles\":" << sloSpec.p99TargetCycles
       << ",\"metastable_windows\":" << sloSpec.metastableWindows
       << ",\"healthy_windows\":" << sloSpec.healthyWindows
       << ",\"smooth_windows\":" << sloSpec.smoothWindows << "},\n"
       << pad << " \"window_cycles\":" << window << ",\"regimes\":\"";
    for (Regime r : regimes)
        os << regimeCode(r);
    os << "\",\n"
       << pad << " \"counts\":{\"healthy\":" << windowsHealthy.value()
       << ",\"overloaded\":" << windowsOverloaded.value()
       << ",\"metastable\":" << windowsMetastable.value()
       << "},\"metastable\":" << (sawMetastable() ? "true" : "false")
       << ",\n"
       << pad << " \"transitions\":[";
    for (size_t i = 0; i < transitionLog.size(); i++) {
        const Transition &t = transitionLog[i];
        os << (i ? "," : "") << "{\"window\":" << t.window
           << ",\"cycle\":" << t.cycle
           << ",\"from\":" << json::str(regimeName(t.from))
           << ",\"to\":" << json::str(regimeName(t.to)) << "}";
    }
    os << "],\n" << pad << " \"marks\":[";
    for (size_t i = 0; i < markLog.size(); i++) {
        const Mark &m = markLog[i];
        os << (i ? "," : "") << "{\"name\":" << json::str(m.name)
           << ",\"cycle\":" << m.cycle << ",\"recovery_cycles\":"
           << json::num(recoveryCyclesFrom(m.cycle)) << "}";
    }
    os << "]}";
}

void
RegimeTracker::exportTrace(trace::Tracer &tracer, uint32_t tid) const
{
    if (!tracer.enabled())
        return;
    for (const Transition &t : transitionLog)
        tracer.instant("slo", regimeName(t.to), t.cycle, tid,
                       trackerLabel);
    for (const Mark &m : markLog)
        tracer.instant("slo", "mark", m.cycle, tid,
                       trackerLabel + ":" + m.name);
}

} // namespace xpc::slo
