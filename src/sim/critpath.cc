#include "critpath.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

namespace xpc::critpath {

namespace {

/** A span rebuilt from a Begin/End pair (possibly clamped). */
struct Interval
{
    const char *cat = "";
    const char *name = "";
    uint32_t tid = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
    uint64_t seq = 0; ///< record order of the Begin (nesting tie-break)
    bool clamped = false;
};

struct Builder
{
    std::vector<Interval> intervals;
    std::vector<Interval> open; ///< Begins awaiting their End
    std::set<uint32_t> lanes;
    bool clamped = false;
    bool flowStart = false;
    bool flowEnd = false;
    uint64_t lastTs = 0; ///< latest timestamp seen for the request
    MemRollup mem;
    std::string outcome;
    uint32_t tenant = 0;
};

bool
sameSpan(const Interval &iv, const trace::TraceEvent &ev)
{
    // cat/name are static strings but not always the same pointer
    // across translation units; compare by content.
    return iv.tid == ev.tid &&
           std::string_view(iv.cat) == ev.cat &&
           std::string_view(iv.name) == ev.name;
}

/** True when @p a is nested inside (or equal to) @p b's extent and
 *  should win the "innermost" contest. */
bool
inner(const Interval &a, const Interval &b)
{
    if (a.begin != b.begin)
        return a.begin > b.begin; // later begin = deeper
    if (a.end != b.end)
        return a.end < b.end; // earlier end = narrower = deeper
    return a.seq > b.seq;
}

} // namespace

uint64_t
RequestReport::attributed() const
{
    uint64_t sum = 0;
    for (const auto &[name, cycles] : spanCycles)
        sum += cycles;
    return sum;
}

std::vector<RequestReport>
analyze(const trace::Tracer &tracer)
{
    using trace::EventKind;
    const std::vector<trace::TraceEvent> events = tracer.events();

    // The earliest timestamp retained of any request: the clamp
    // point for spans whose Begin fell off the ring. Events outside
    // every request (counter tracks, log lines) do not move it.
    uint64_t window_start = UINT64_MAX;
    for (const trace::TraceEvent &ev : events)
        if (ev.req != 0)
            window_start = std::min(window_start, ev.ts);

    // Pass 1 - pair spans in record order (emission order is always
    // Begin-before-End for one span, even when timestamps tie or
    // post-hoc spans interleave with real-time children).
    std::map<req::RequestId, Builder> builders;
    uint64_t seq = 0;
    for (const trace::TraceEvent &ev : events) {
        seq++;
        if (ev.req == 0)
            continue;
        Builder &b = builders[ev.req];
        b.lastTs = std::max(b.lastTs, ev.ts);
        switch (ev.kind) {
          case EventKind::Begin: {
            Interval iv;
            iv.cat = ev.cat;
            iv.name = ev.name;
            iv.tid = ev.tid;
            iv.begin = ev.ts;
            iv.seq = seq;
            b.open.push_back(iv);
            b.lanes.insert(ev.tid);
            break;
          }
          case EventKind::End: {
            auto it = std::find_if(
                b.open.rbegin(), b.open.rend(),
                [&](const Interval &iv) { return sameSpan(iv, ev); });
            if (it == b.open.rend()) {
                // Begin lost to wraparound: clamp to the window.
                Interval iv;
                iv.cat = ev.cat;
                iv.name = ev.name;
                iv.tid = ev.tid;
                iv.begin = window_start;
                iv.end = ev.ts;
                iv.seq = 0;
                iv.clamped = true;
                b.intervals.push_back(iv);
                b.clamped = true;
            } else {
                Interval iv = *it;
                iv.end = ev.ts;
                b.intervals.push_back(iv);
                b.open.erase(std::next(it).base());
            }
            b.lanes.insert(ev.tid);
            break;
          }
          case EventKind::FlowStart:
            b.flowStart = true;
            b.lanes.insert(ev.tid);
            break;
          case EventKind::FlowEnd:
            b.flowEnd = true;
            b.lanes.insert(ev.tid);
            break;
          case EventKind::FlowStep:
            b.lanes.insert(ev.tid);
            break;
          case EventKind::Instant:
            // The call bracket stamps a top-level call's terminal
            // status, and a non-default tenant, as instant texts.
            if (std::string_view(ev.name) == "outcome") {
                b.outcome = tracer.textOf(ev);
            } else if (std::string_view(ev.name) == "tenant") {
                b.tenant = uint32_t(
                    std::strtoul(tracer.textOf(ev).c_str(), nullptr, 10));
            } else if (std::string_view(ev.cat) == "mem") {
                std::string_view n(ev.name);
                if (n == "tlb_miss_fill") {
                    b.mem.tlbWalks++;
                    b.mem.tlbWalkCycles += ev.arg;
                } else if (n == "l1_miss_fill") {
                    b.mem.l1Fills++;
                    b.mem.l1FillCycles += ev.arg;
                }
            }
            break;
          default:
            break;
        }
    }

    // Pass 2 - per request: close dangling spans, sweep the window.
    std::vector<RequestReport> out;
    for (auto &[id, b] : builders) {
        // Spans that never Ended (crash unwind, trace cut mid-call):
        // clamp to the last event seen for this request.
        for (Interval &iv : b.open) {
            iv.end = std::max(b.lastTs, iv.begin);
            iv.clamped = true;
            b.intervals.push_back(iv);
            b.clamped = true;
        }
        if (b.intervals.empty())
            continue; // flow/instant stamps only; nothing to walk

        RequestReport r;
        r.id = id;
        r.complete = !b.clamped;
        r.lanes = uint32_t(b.lanes.size());
        r.flowClosed = b.flowStart && b.flowEnd;
        r.startTs = b.intervals.front().begin;
        r.endTs = b.intervals.front().end;
        for (const Interval &iv : b.intervals) {
            r.startTs = std::min(r.startTs, iv.begin);
            r.endTs = std::max(r.endTs, iv.end);
        }
        r.mem = b.mem;
        r.outcome = b.outcome;
        r.tenant = b.tenant;

        // Elementary slices between span boundaries.
        std::vector<uint64_t> cuts;
        cuts.reserve(b.intervals.size() * 2);
        for (const Interval &iv : b.intervals) {
            cuts.push_back(iv.begin);
            cuts.push_back(iv.end);
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

        static const Interval untracked{"", "(untracked)", 0, 0, 0, 0,
                                        false};
        std::map<std::string, uint64_t> totals;
        for (size_t i = 0; i + 1 < cuts.size(); i++) {
            uint64_t lo = cuts[i], hi = cuts[i + 1];
            const Interval *deepest = nullptr;
            for (const Interval &iv : b.intervals) {
                if (iv.begin > lo || iv.end < hi)
                    continue;
                if (!deepest || inner(iv, *deepest))
                    deepest = &iv;
            }
            if (!deepest)
                deepest = &untracked; // a gap nobody claimed
            uint64_t delta = hi - lo;
            totals[deepest->name] += delta;
            if (!r.path.empty() &&
                r.path.back().name ==
                    std::string_view(deepest->name) &&
                r.path.back().tid == deepest->tid) {
                r.path.back().cycles += delta;
            } else {
                Segment s;
                s.cat = deepest->cat;
                s.name = deepest->name;
                s.tid = deepest->tid;
                s.begin = lo;
                s.cycles = delta;
                r.path.push_back(s);
            }
        }

        r.spanCycles.assign(totals.begin(), totals.end());
        std::stable_sort(r.spanCycles.begin(), r.spanCycles.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        out.push_back(std::move(r));
    }
    return out;
}

namespace {

std::string
laneName(const trace::Tracer &tracer, uint32_t tid)
{
    auto it = tracer.trackNames().find(tid);
    if (it != tracer.trackNames().end())
        return it->second;
    char buf[32];
    if (tid >= req::threadLaneBase)
        std::snprintf(buf, sizeof(buf), "thread%u",
                      tid - req::threadLaneBase);
    else
        std::snprintf(buf, sizeof(buf), "core%u", tid);
    return buf;
}

std::string
pct(uint64_t part, uint64_t whole)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  whole ? 100.0 * double(part) / double(whole) : 0.0);
    return buf;
}

/** The top view's class of a terminal status name. */
std::string
outcomeClass(const std::string &status)
{
    if (status.empty())
        return "-";
    if (status == "deadline-expired")
        return "timeout";
    if (status == "overloaded")
        return "shed";
    return status;
}

std::string
tenantLabel(uint32_t tenant)
{
    return tenant ? "t" + std::to_string(tenant) : "-";
}

} // namespace

std::string
formatReport(const RequestReport &r, const trace::Tracer &tracer)
{
    std::ostringstream os;
    os << "request #" << r.id << ": " << r.total() << " cycles, "
       << r.lanes << " lane" << (r.lanes == 1 ? "" : "s")
       << (r.flowClosed ? ", flow closed" : "")
       << (r.complete ? "" : ", INCOMPLETE (spans clamped)") << "\n";
    os << "  critical path:\n";
    for (const Segment &s : r.path) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "    %8llu  +%-8llu %-12s %s.%s\n",
                      (unsigned long long)s.begin,
                      (unsigned long long)s.cycles,
                      laneName(tracer, s.tid).c_str(), s.cat, s.name);
        os << line;
    }
    os << "  by span:";
    bool first = true;
    for (const auto &[name, cycles] : r.spanCycles) {
        os << (first ? " " : ", ") << name << " " << cycles << " ("
           << pct(cycles, r.total()) << ")";
        first = false;
    }
    os << "\n";
    if (r.mem.l1Fills || r.mem.tlbWalks) {
        os << "  memory: " << r.mem.tlbWalks << " TLB walk"
           << (r.mem.tlbWalks == 1 ? "" : "s") << " ("
           << r.mem.tlbWalkCycles << " cyc, "
           << pct(r.mem.tlbWalkCycles, r.total()) << "), "
           << r.mem.l1Fills << " L1 fill"
           << (r.mem.l1Fills == 1 ? "" : "s") << " ("
           << r.mem.l1FillCycles << " cyc, "
           << pct(r.mem.l1FillCycles, r.total()) << ")\n";
    }
    os << "  attribution check: " << r.attributed() << " / "
       << r.total() << " cycles ("
       << (r.attributed() == r.total() ? "exact" : "MISMATCH")
       << ")\n";
    return os.str();
}

std::string
formatTop(const std::vector<RequestReport> &reports)
{
    std::ostringstream os;
    Histogram totals;
    std::map<std::string, uint64_t> spans;
    // End-to-end cycles per outcome class: sheds are cheap and fast,
    // timeouts pin the tail, so one blended percentile hides exactly
    // the split that matters.
    std::map<std::string, Histogram> outcomes;
    std::map<uint32_t, std::map<std::string, uint64_t>> perTenant;
    bool tenanted = false;
    uint64_t grand = 0;
    for (const RequestReport &r : reports) {
        totals.record(r.total());
        grand += r.total();
        for (const auto &[name, cycles] : r.spanCycles)
            spans[name] += cycles;
        std::string cls = outcomeClass(r.outcome);
        outcomes[cls].record(r.total());
        perTenant[r.tenant][cls]++;
        tenanted |= r.tenant != 0;
    }
    os << "critpath top: " << reports.size() << " request"
       << (reports.size() == 1 ? "" : "s");
    if (totals.count() > 0) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      ", end-to-end p50 %.0f / p99 %.0f cycles",
                      totals.quantile(0.5), totals.quantile(0.99));
        os << buf;
    }
    os << "\n";
    if (reports.empty())
        return os.str();

    os << "  outcomes:\n";
    int width = 14;
    for (const auto &[cls, d] : outcomes)
        width = std::max(width, int(cls.size()));
    for (const auto &[cls, d] : outcomes) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "    %-*s %6zu  p50 %8.0f  p99 %8.0f cyc\n", width,
                      cls.c_str(), size_t(d.count()), d.quantile(0.5),
                      d.quantile(0.99));
        os << line;
    }
    // Single-tenant runs carry no tenant stamps and get no such rows.
    for (const auto &[tenant, counts] : perTenant) {
        if (!tenanted)
            break;
        os << "  outcomes[" << tenantLabel(tenant) << "]:";
        const char *sep = " ";
        for (const auto &[cls, n] : counts) {
            os << sep << cls << " " << n;
            sep = ", ";
        }
        os << "\n";
    }

    std::vector<std::pair<std::string, uint64_t>> rows(spans.begin(),
                                                       spans.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    for (const auto &[name, cycles] : rows) {
        char line[96];
        std::snprintf(line, sizeof(line), "  %-16s %10llu  %s\n",
                      name.c_str(), (unsigned long long)cycles,
                      pct(cycles, grand).c_str());
        os << line;
    }

    char line[64];
    std::snprintf(line, sizeof(line), "  %8s  %10s  ", "req", "cycles");
    os << line << (tenanted ? "tenant  " : "") << "outcome\n";
    for (const RequestReport &r : reports) {
        std::string id = "#" + std::to_string(r.id);
        std::snprintf(line, sizeof(line), "  %8s  %10llu  ", id.c_str(),
                      (unsigned long long)r.total());
        os << line;
        if (tenanted) {
            std::snprintf(line, sizeof(line), "%6s  ",
                          tenantLabel(r.tenant).c_str());
            os << line;
        }
        os << outcomeClass(r.outcome) << "\n";
    }
    return os.str();
}

CritPathStats::CritPathStats(StatGroup *parent)
{
    group.setParent(parent);
    group.addHistogram("total_cycles", &totalCycles);
}

void
CritPathStats::add(const RequestReport &r)
{
    totalCycles.record(r.total());
    for (const auto &[name, cycles] : r.spanCycles) {
        auto [it, fresh] = perSpan.try_emplace(name);
        if (fresh)
            group.addHistogram(name, &it->second);
        it->second.record(cycles);
    }
}

const Histogram *
CritPathStats::span(const std::string &name) const
{
    auto it = perSpan.find(name);
    return it == perSpan.end() ? nullptr : &it->second;
}

} // namespace xpc::critpath
