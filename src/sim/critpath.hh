/**
 * @file
 * Per-request critical-path reconstruction over the trace ring: the
 * one analyzer of the simulator's traces.
 *
 * The simulator's calls are synchronous: one client request is a
 * single chain of nested spans across lanes (client, servers, engine,
 * kernel phases), all stamped with the same RequestId by the tracer.
 * The analyzer rebuilds those spans into intervals, then walks the
 * request's time window attributing every cycle to the *innermost*
 * span active at that instant - so the per-span cycle totals sum to
 * exactly the request's end-to-end simulated cycles (the acceptance
 * invariant of the profiler; cycles nobody claimed land in the
 * "(untracked)" bucket rather than vanishing).
 *
 * Wraparound and crash unwinds degrade gracefully: a span whose
 * Begin was overwritten is clamped to the snapshot's start, a span
 * that never Ended (fault-injected kill, trace cut mid-call) is
 * clamped to the request's last event, and the report is marked
 * incomplete instead of lying.
 *
 * The aggregates (formatTop, CritPathStats) keep their cycles in
 * Histograms, so their p50/p99 follow sim/histogram.hh's one quantile
 * definition.
 */

#ifndef XPC_SIM_CRITPATH_HH
#define XPC_SIM_CRITPATH_HH

#include <map>
#include <string>
#include <vector>

#include "sim/request.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace xpc::critpath {

/** One slice of a request's critical path. */
struct Segment
{
    const char *cat = "";
    const char *name = "";
    uint32_t tid = 0;      ///< lane the cycles were spent on
    uint64_t begin = 0;    ///< first cycle of the slice
    uint64_t cycles = 0;   ///< cycles attributed to it
};

/** Memory-hierarchy events attributed to the request. */
struct MemRollup
{
    uint64_t l1Fills = 0;
    uint64_t l1FillCycles = 0;
    uint64_t tlbWalks = 0;
    uint64_t tlbWalkCycles = 0;
};

/** Everything reconstructed about one request. */
struct RequestReport
{
    req::RequestId id = 0;
    uint64_t startTs = 0;
    uint64_t endTs = 0;
    /** False when spans were clamped (ring wraparound, a call that
     *  never returned) - totals are then lower bounds. */
    bool complete = true;
    /** Distinct lanes the request's spans and flow arcs touched. */
    uint32_t lanes = 0;
    /** True when the flow arc has both its start and end anchor. */
    bool flowClosed = false;
    /** Terminal CallStatus name from the request's "outcome"
     *  instant ("" when the trace holds none). */
    std::string outcome;
    /** Caller's tenant from its "tenant" instant (0 = none: only
     *  non-default tenants are stamped). */
    uint32_t tenant = 0;
    /** Time-ordered critical path (consecutive same-span merged). */
    std::vector<Segment> path;
    /** Per-span-name cycle totals, largest first. */
    std::vector<std::pair<std::string, uint64_t>> spanCycles;
    MemRollup mem;

    uint64_t total() const { return endTs - startTs; }
    /** Sum of spanCycles - equals total() by construction. */
    uint64_t attributed() const;
};

/** Reconstruct every request whose spans @p tracer retains. */
std::vector<RequestReport> analyze(const trace::Tracer &tracer);

/** Multi-line human-readable report for one request. Lane names
 *  resolve through @p tracer (the one analyze() read). */
std::string formatReport(const RequestReport &r,
                         const trace::Tracer &tracer);

/**
 * xpctop-style aggregate over all requests: request count and p50/p99
 * of end-to-end cycles, then one row per outcome class with its count
 * and p50/p99 (deadline-expired counts as "timeout", overloaded as
 * "shed", any other status by its name, none as "-"), per-tenant
 * outcome counts when some request carries a tenant, per-span cycles
 * hottest first, and one line per request: id, cycles, tenant (when
 * tenanted) and outcome class.
 */
std::string formatTop(const std::vector<RequestReport> &reports);

/**
 * Aggregates per-request totals and per-span attributions into
 * Histograms registered under one StatGroup ("critpath"), so
 * benches export p50/p99 through the registry and BENCH_*.json.
 */
class CritPathStats
{
  public:
    explicit CritPathStats(StatGroup *parent = nullptr);

    void add(const RequestReport &r);

    void
    addAll(const std::vector<RequestReport> &reports)
    {
        for (const RequestReport &r : reports)
            add(r);
    }

    StatGroup &statGroup() { return group; }
    const Histogram &total() const { return totalCycles; }
    /** Per-span histogram (nullptr if the span never appeared). */
    const Histogram *span(const std::string &name) const;
    const std::map<std::string, Histogram> &spans() const
    {
        return perSpan;
    }

  private:
    StatGroup group{"critpath"};
    Histogram totalCycles;
    /** Map nodes never move, so the registered pointers stay valid. */
    std::map<std::string, Histogram> perSpan;
};

} // namespace xpc::critpath

#endif // XPC_SIM_CRITPATH_HH
