/**
 * @file
 * Low-overhead event tracing keyed by simulated cycles.
 *
 * The Tracer records begin/end spans, instants, counter samples and
 * causal flow events into a fixed-capacity ring buffer (oldest events
 * are overwritten) and exports them as Chrome/Perfetto `trace_event`
 * JSON, with one simulated cycle mapped to one microsecond of trace
 * time. Every record call is guarded by a single inline enabled()
 * check, so the tracer costs one predictable branch when off; it is
 * off by default and turned on either programmatically or by setting
 * XPC_TRACE=1 in the environment.
 *
 * Timestamps are *simulated* cycles supplied by the caller (usually
 * hw::Core::now()), so tracing never perturbs measured latencies:
 * recording an event does not spend core cycles.
 *
 * Ring slots are trivially copyable: dynamic payloads (log record
 * text, call outcomes) live in a side ring of strings referenced by
 * index, so the span fast path never allocates. The side ring holds
 * as many texts as the event ring holds events, so a retained event
 * never loses its text; it grows with the texts actually recorded.
 * Every event is stamped with the active request id and phase of its
 * machine's request context (sim/request.hh), which is what ties a
 * span on the file server's lane to the client request that caused
 * it. Each hw::Machine owns one tracer beside that context, so a
 * System's trace, request ids and lane names are its own.
 */

#ifndef XPC_SIM_TRACE_HH
#define XPC_SIM_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/request.hh"
#include "sim/types.hh"

namespace xpc::trace {

/** Chrome trace_event phase of one record. */
enum class EventKind : uint8_t
{
    Begin,     ///< "B": span opens
    End,       ///< "E": span closes
    Instant,   ///< "i": point event
    Counter,   ///< "C": sampled counter value
    FlowStart, ///< "s": a causal flow arc begins here
    FlowStep,  ///< "t": the flow passes through this slice
    FlowEnd,   ///< "f": the flow terminates here
};

/** One recorded event. cat/name must be string literals (or other
 *  static-lifetime strings): the tracer stores the pointers only. */
struct TraceEvent
{
    uint64_t ts = 0;  ///< simulated cycles
    uint64_t arg = 0; ///< counter value / flow id / payload cycles
    const char *cat = "";
    const char *name = "";
    /** Request bound when the event was recorded (0 = none). */
    uint64_t req = 0;
    uint32_t tid = 0; ///< lane: core id, or req::threadLane(thread)
    /** Phase bound when recorded (req::phaseNone = none). */
    uint32_t phase = req::phaseNone;
    /** 1-based sequence into the text side ring (0 = no text). */
    uint32_t textRef = 0;
    EventKind kind = EventKind::Instant;
};

// The ring assignment must never allocate (satellite: no std::string
// in the hot slot; log text goes through the side ring instead).
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay trivially copyable: the span fast "
              "path may not allocate");

/** Ring-buffer tracer; one per simulated machine. */
class Tracer
{
  public:
    /** A tracer that stamps events from @p requests. Reads XPC_TRACE
     *  ("0" or unset = disabled) and XPC_TRACE_BUF (capacity in
     *  events). */
    explicit Tracer(const req::RequestContext &requests);

    bool enabled() const { return on; }
    void setEnabled(bool e) { on = e; }

    /** Resize the ring buffer; drops everything recorded so far. */
    void setCapacity(size_t events);
    size_t capacity() const { return cap; }

    /** Drop all recorded events (capacity and track names kept). */
    void clear();

    void begin(const char *cat, const char *name, uint64_t ts,
               uint32_t tid);
    void end(const char *cat, const char *name, uint64_t ts,
             uint32_t tid);
    void instant(const char *cat, const char *name, uint64_t ts,
                 uint32_t tid, std::string text = {});
    void counter(const char *cat, const char *name, uint64_t value,
                 uint64_t ts, uint32_t tid);

    /**
     * Causal flow event: the "s"/"t"/"f" arc that Perfetto draws
     * across lanes. Events with the same (cat, name, flow_id) chain
     * into one arc, each binding to the slice enclosing @p ts on its
     * lane. @p kind must be FlowStart, FlowStep or FlowEnd.
     */
    void flow(EventKind kind, const char *cat, const char *name,
              uint64_t flow_id, uint64_t ts, uint32_t tid);

    /**
     * Instant stamped with the last timestamp seen on @p tid: used by
     * layers that observe an event but do not own a cycle clock (the
     * memory system, the log sinks, the fault injector). @p arg
     * carries an optional payload (e.g. miss-fill cycles), exported
     * as args.v.
     */
    void instantNow(const char *cat, const char *name, uint32_t tid,
                    std::string text = {}, uint64_t arg = 0);

    /** Most recent timestamp recorded for @p tid (0 if none). */
    uint64_t lastTime(uint32_t tid) const;

    /** Total events ever recorded (including overwritten ones). */
    uint64_t recordedCount() const { return nrec; }
    /** Events lost to ring-buffer wraparound. */
    uint64_t droppedCount() const;
    /** Events currently held. */
    size_t size() const;

    /** Snapshot of the retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** Resolve an event's dynamic text from the side ring ("" when
     *  it carries none). Valid for every event events() returns. */
    const std::string &textOf(const TraceEvent &ev) const;

    /**
     * Name a lane for the export (Perfetto thread_name metadata).
     * Wiring-time registration; survives clear() and works while
     * tracing is disabled so lanes named during setup still label a
     * later trace.
     */
    void setTrackName(uint32_t tid, std::string name);
    const std::map<uint32_t, std::string> &trackNames() const
    {
        return laneNames;
    }

    /** Write Chrome trace_event JSON ({"traceEvents": [...]}). */
    void exportChromeJson(std::ostream &os) const;
    /** Same, to a file. @return false if the file could not open. */
    bool exportChromeJson(const std::string &path) const;

  private:
    /** Record one event, stamped with the active request and phase
     *  (callers check enabled()). */
    void push(EventKind kind, const char *cat, const char *name,
              uint64_t ts, uint32_t tid, uint64_t arg = 0,
              uint32_t text_ref = 0);
    /** Keep @p text in the side ring. @return its 1-based sequence,
     *  or 0 for an empty text (none kept). */
    uint32_t keepText(std::string text);

    const req::RequestContext &ctx;
    bool on = false;
    size_t cap = 1 << 16;
    std::vector<TraceEvent> ring;
    uint64_t nrec = 0;
    /** Last timestamp per lane, indexed by tid; grows on demand. */
    std::vector<uint64_t> lastTs;
    /** Side ring for dynamic payloads: text n (1-based) lives in
     *  texts[(n - 1) % cap]; grows up to cap entries. */
    std::vector<std::string> texts;
    uint64_t ntext = 0;
    std::map<uint32_t, std::string> laneNames;
};

/**
 * RAII begin/end span charged to a core's simulated clock, recorded
 * by the core's tracer. CoreT only needs now().value(), id() and
 * tracer(), so tests can use a stub clock.
 */
template <typename CoreT>
class Span
{
  public:
    Span(CoreT &core, const char *cat, const char *name)
        : coreRef(core), category(cat), label(name)
    {
        Tracer &t = coreRef.tracer();
        if (t.enabled()) {
            active = true;
            t.begin(category, label, coreRef.now().value(),
                    coreRef.id());
        }
    }

    ~Span()
    {
        if (active)
            coreRef.tracer().end(category, label, coreRef.now().value(),
                                 coreRef.id());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    CoreT &coreRef;
    const char *category;
    const char *label;
    bool active = false;
};

} // namespace xpc::trace

#endif // XPC_SIM_TRACE_HH
