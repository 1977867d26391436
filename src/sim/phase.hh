/**
 * @file
 * The paper's phase taxonomy and the RAII probes that attribute
 * simulated cycles to it.
 *
 * Table 1 decomposes a seL4 one-way IPC into trap / IPC logic /
 * process switch / restore (+ message transfer); Figure 5 decomposes
 * an xcall into trampoline / xcall / TLB-and-other. PhaseStats holds
 * one Histogram per phase inside a StatGroup, so benches read the
 * breakdown from the registry instead of private accounting, and
 * PhaseTimer is the scoped probe that times a phase and (when tracing
 * is on) emits its span.
 */

#ifndef XPC_SIM_PHASE_HH
#define XPC_SIM_PHASE_HH

#include "sim/request.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace xpc {

/** Where cycles of a cross-process call can go. */
enum class Phase : uint32_t
{
    // Table 1: the seL4 fast-path phases.
    Trap,
    IpcLogic,
    ProcessSwitch,
    Restore,
    Transfer,
    // Figure 5: the XPC call phases.
    Trampoline,
    Xcall,
    Handler,
    Xret,
    // End-to-end attributions.
    OneWay,
    RoundTrip,
};

constexpr uint32_t phaseCount = 11;

const char *phaseName(Phase phase);

/** Per-phase cycle histograms, registered as one StatGroup. */
class PhaseStats
{
  public:
    /** Build a group named @p name and attach it to @p parent. */
    explicit PhaseStats(const char *name = "phases",
                        StatGroup *parent = nullptr);

    StatGroup &statGroup() { return group; }

    void
    record(Phase phase, Cycles cycles)
    {
        uint32_t i = uint32_t(phase);
        perPhase[i].record(cycles.value());
        lastVal[i] = cycles.value();
    }

    /** Cycles the most recent sample attributed to @p phase. */
    uint64_t last(Phase phase) const
    {
        return lastVal[uint32_t(phase)];
    }

    const Histogram &histogram(Phase phase) const
    {
        return perPhase[uint32_t(phase)];
    }

    void reset();

  private:
    StatGroup group;
    Histogram perPhase[phaseCount];
    uint64_t lastVal[phaseCount] = {};
};

/**
 * Scoped phase probe: samples the core clock at construction and
 * binds the phase in the core's request context, so memory traffic
 * inside the probe is attributed to it (sim/request.hh). stop() (or
 * destruction) unbinds the phase, emits the span to the core's
 * tracer after the fact - named phaseName(phase), on lane
 * @p lane in category @p cat, from the phase's first cycle to now -
 * and returns the elapsed cycles. Recording the phase into PhaseStats
 * is the caller's business: a call path does it at the call's end,
 * and only when the call succeeded. Purely observational - it never
 * spends cycles itself.
 */
template <typename CoreT>
class PhaseTimer
{
  public:
    PhaseTimer(CoreT &core, Phase phase, const char *cat, uint32_t lane)
        : coreRef(core), phase_(phase), category(cat), laneId(lane),
          startTs(core.now())
    {
        coreRef.requests().pushPhase(uint32_t(phase_));
    }

    ~PhaseTimer() { stop(); }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

    /** Close the probe; later calls return the same cycles. */
    Cycles
    stop()
    {
        if (!stopped) {
            stopped = true;
            coreRef.requests().popPhase();
            elapsed = coreRef.now() - startTs;
            trace::Tracer &t = coreRef.tracer();
            if (t.enabled()) {
                t.begin(category, phaseName(phase_), startTs.value(),
                        laneId);
                t.end(category, phaseName(phase_),
                      coreRef.now().value(), laneId);
            }
        }
        return elapsed;
    }

  private:
    CoreT &coreRef;
    Phase phase_;
    const char *category;
    uint32_t laneId;
    Cycles startTs;
    Cycles elapsed;
    bool stopped = false;
};

} // namespace xpc

#endif // XPC_SIM_PHASE_HH
