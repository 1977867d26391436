#include "trace.hh"

#include <cstdlib>
#include <fstream>
#include <ostream>

#include "json.hh"
#include "phase.hh"

namespace xpc::trace {

Tracer::Tracer(const req::RequestContext &requests) : ctx(requests)
{
    if (const char *env = std::getenv("XPC_TRACE"))
        on = env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
    if (const char *env = std::getenv("XPC_TRACE_BUF")) {
        unsigned long long n = std::strtoull(env, nullptr, 10);
        if (n > 0)
            cap = size_t(n);
    }
}

void
Tracer::setCapacity(size_t events)
{
    cap = events > 0 ? events : 1;
    ring = std::vector<TraceEvent>(); // the next event sizes it anew
    clear();
}

void
Tracer::clear()
{
    // events() reads only [first, nrec), so stale slots are never read.
    nrec = 0;
    texts.clear();
    ntext = 0;
    lastTs.clear();
}

void
Tracer::push(EventKind kind, const char *cat, const char *name,
             uint64_t ts, uint32_t tid, uint64_t arg, uint32_t text_ref)
{
    TraceEvent ev;
    ev.ts = ts;
    ev.arg = arg;
    ev.cat = cat;
    ev.name = name;
    // Stamp the causal context: which request chain, which phase.
    ev.req = ctx.current();
    ev.tid = tid;
    ev.phase = ctx.currentPhase();
    ev.textRef = text_ref;
    ev.kind = kind;
    if (tid >= lastTs.size())
        lastTs.resize(size_t(tid) + 1);
    lastTs[tid] = ts;
    if (ring.empty())
        ring.resize(cap); // at the first event: an idle tracer holds none
    ring[nrec % cap] = ev;
    nrec++;
}

uint32_t
Tracer::keepText(std::string text)
{
    if (text.empty())
        return 0;
    // At most cap events are retained, so the last cap texts cover
    // every retained event that carries one.
    if (texts.size() < cap)
        texts.push_back(std::move(text));
    else
        texts[ntext % cap] = std::move(text);
    ntext++;
    return uint32_t(ntext);
}

void
Tracer::begin(const char *cat, const char *name, uint64_t ts,
              uint32_t tid)
{
    if (enabled())
        push(EventKind::Begin, cat, name, ts, tid);
}

void
Tracer::end(const char *cat, const char *name, uint64_t ts,
            uint32_t tid)
{
    if (enabled())
        push(EventKind::End, cat, name, ts, tid);
}

void
Tracer::instant(const char *cat, const char *name, uint64_t ts,
                uint32_t tid, std::string text)
{
    if (enabled())
        push(EventKind::Instant, cat, name, ts, tid, 0,
             keepText(std::move(text)));
}

void
Tracer::counter(const char *cat, const char *name, uint64_t value,
                uint64_t ts, uint32_t tid)
{
    if (enabled())
        push(EventKind::Counter, cat, name, ts, tid, value);
}

void
Tracer::flow(EventKind kind, const char *cat, const char *name,
             uint64_t flow_id, uint64_t ts, uint32_t tid)
{
    if (enabled())
        push(kind, cat, name, ts, tid, flow_id);
}

void
Tracer::instantNow(const char *cat, const char *name, uint32_t tid,
                   std::string text, uint64_t arg)
{
    if (enabled())
        push(EventKind::Instant, cat, name, lastTime(tid), tid, arg,
             keepText(std::move(text)));
}

uint64_t
Tracer::lastTime(uint32_t tid) const
{
    return tid < lastTs.size() ? lastTs[tid] : 0;
}

uint64_t
Tracer::droppedCount() const
{
    return nrec > cap ? nrec - cap : 0;
}

size_t
Tracer::size() const
{
    return nrec < cap ? size_t(nrec) : cap;
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    size_t held = size();
    out.reserve(held);
    uint64_t first = nrec > cap ? nrec - cap : 0;
    for (uint64_t i = first; i < nrec; i++)
        out.push_back(ring[i % cap]);
    return out;
}

const std::string &
Tracer::textOf(const TraceEvent &ev) const
{
    static const std::string empty;
    if (ev.textRef == 0)
        return empty;
    uint64_t seq = ev.textRef; // 1-based
    if (seq > ntext || ntext - seq >= cap)
        return empty; // not a retained event
    return texts[(seq - 1) % cap];
}

void
Tracer::setTrackName(uint32_t tid, std::string name)
{
    laneNames[tid] = std::move(name);
}

namespace {

char
phaseChar(EventKind kind)
{
    switch (kind) {
      case EventKind::Begin:
        return 'B';
      case EventKind::End:
        return 'E';
      case EventKind::Instant:
        return 'i';
      case EventKind::Counter:
        return 'C';
      case EventKind::FlowStart:
        return 's';
      case EventKind::FlowStep:
        return 't';
      case EventKind::FlowEnd:
        return 'f';
    }
    return 'i';
}

bool
isFlow(EventKind kind)
{
    return kind == EventKind::FlowStart ||
           kind == EventKind::FlowStep || kind == EventKind::FlowEnd;
}

} // namespace

void
Tracer::exportChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first_ev = true;
    auto sep = [&]() {
        if (!first_ev)
            os << ",";
        first_ev = false;
        os << "\n";
    };
    // Lane metadata first: names registered at wiring time label the
    // client/server tracks in the Perfetto UI.
    for (const auto &[tid, name] : laneNames) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0"
           << ",\"tid\":" << tid << ",\"args\":{\"name\":"
           << json::str(name) << "}}";
    }
    for (const TraceEvent &ev : events()) {
        sep();
        os << "{\"name\":" << json::str(ev.name)
           << ",\"cat\":" << json::str(ev.cat)
           << ",\"ph\":\"" << phaseChar(ev.kind) << "\""
           << ",\"ts\":" << ev.ts << ",\"pid\":0,\"tid\":" << ev.tid;
        if (ev.kind == EventKind::Instant)
            os << ",\"s\":\"t\"";
        if (isFlow(ev.kind)) {
            os << ",\"id\":" << ev.arg;
            if (ev.kind == EventKind::FlowEnd)
                os << ",\"bp\":\"e\""; // bind to the enclosing slice
        }
        // args: counter value / text payload / causal stamps.
        std::string args;
        auto field = [&](const std::string &f) {
            args += (args.empty() ? "" : ",") + f;
        };
        if (ev.kind == EventKind::Counter)
            field("\"value\":" + std::to_string(ev.arg));
        if (const std::string &text = textOf(ev); !text.empty())
            field("\"msg\":" + json::str(text));
        if (ev.kind == EventKind::Instant && ev.arg != 0)
            field("\"v\":" + std::to_string(ev.arg));
        if (!isFlow(ev.kind) && ev.req != 0)
            field("\"req\":" + std::to_string(ev.req));
        if (ev.phase != req::phaseNone && ev.phase < phaseCount)
            field("\"phase\":" + json::str(phaseName(Phase(ev.phase))));
        if (!args.empty())
            os << ",\"args\":{" << args << "}";
        os << "}";
    }
    os << "\n]}\n";
}

bool
Tracer::exportChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    exportChromeJson(os);
    return os.good();
}

} // namespace xpc::trace
