/**
 * @file
 * Shared plumbing for the experiment benches: the report, its tables
 * and shape claims, and canned system wirings (echo service, FS
 * stack, net stack, web chain) so each bench reads like the
 * experiment it reproduces.
 */

#ifndef XPC_BENCH_BENCH_UTIL_HH
#define XPC_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <sys/resource.h>

#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/net_server.hh"
#include "services/web.hh"
#include "sim/critpath.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace xpc::bench {

/**
 * One column of a Table: its header, the printf format of its
 * numeric cells and the report metric each of them is recorded
 * under. A '*' in the key stands for the row's key; without one the
 * row key is appended after a dot. A paper column's key starts with
 * "paper.". The label column and text-only columns have no key.
 */
struct Col
{
    std::string header;
    std::string format = "%s";
    std::string key = "";
    /** Printed value = recorded value x scale (percent columns). */
    double scale = 1;

    /** @p v as this column prints it: NaN is "never", and the
     *  format "yes/no" prints a flag. */
    std::string
    show(double v) const
    {
        if (std::isnan(v))
            return "never";
        if (format == "yes/no")
            return v != 0 ? "yes" : "no";
        char buf[96];
        std::snprintf(buf, sizeof(buf), format.c_str(), v * scale);
        return buf;
    }

    /** The report key of this column's cell in the row keyed @p row. */
    std::string
    keyFor(const std::string &row) const
    {
        size_t at = key.find('*');
        return at == std::string::npos
                   ? key + "." + row
                   : key.substr(0, at) + row + key.substr(at + 1);
    }
};

/** A table cell: a number (recorded) or a text (printed as is). */
using Cell = std::variant<double, std::string>;

/**
 * A shape claim over a bench's report keys, checked when the report
 * is written: a strict order of two keys, a bound, closeness to the
 * key's paper value, "never" (NaN) or finite. A declared deviation is
 * a claim known not to hold, with the reason; it fails the bench only
 * if a key it names was never recorded.
 */
struct Claim
{
    std::string text;
    std::string key;
    std::string other; ///< the larger key of an order, else ""
    bool paper;        ///< needs paper.<key>
    std::function<bool(double v, double other, double paper)> holds;
    /** Why the claim is a known deviation; "" declares none. */
    std::string deviation;
};

/**
 * Machine-readable companion to a bench's printed table.
 *
 * Collects the configuration, metrics, paper reference values,
 * per-phase cycle attribution, latency distributions and shape claims
 * of one bench run and writes them as `BENCH_<name>.json` into
 * `$XPC_BENCH_DIR` (default: the working directory) when write() is
 * called or the report is destroyed. Every number a bench prints
 * reaches the metrics through a Table; tools/stats_diff.py compares
 * two such files and fails on any difference.
 *
 * write() evaluates the claims: it prints a scorecard (claim, paper
 * value, simulated value, verdict), records each verdict under
 * "claims", and names every failed claim on stderr. The destructor
 * exits the process with status 1 after writing when a claim failed
 * that is not a declared deviation.
 *
 * Host wall-clock goes to a *sidecar* file, `HOST_<name>.json`:
 * hostMark() attributes the ms since the previous mark (or
 * construction) to a named phase, and write() adds the run total.
 * Wall time is inherently non-deterministic, so it must never touch
 * BENCH_<name>.json - the baseline gate compares every value in
 * those, and stats_diff.py's BENCH_*.json glob skips the sidecar by
 * name (ROADMAP item 5: host-cost profiling).
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name)
        : name(std::move(bench_name))
    {}

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    ~BenchReport()
    {
        if (!written && write() > 0)
            std::exit(1);
    }

    void
    config(const std::string &key, const std::string &value)
    {
        configs[key] = json::str(value);
    }

    void
    config(const std::string &key, double value)
    {
        configs[key] = json::num(value);
    }

    /** A recorded number (cycles, ops/sec, ...); "paper.<key>" is
     *  the paper's value for <key>. Each key is recorded once. */
    void
    metric(const std::string &key, double value)
    {
        panic_if(!metrics.emplace(key, value).second,
                 "bench %s records %s twice", name.c_str(), key.c_str());
    }

    /** @name Claims over recorded keys (see Claim). */
    /// @{
    Claim &
    less(const std::string &key, const std::string &other)
    {
        return add(key + " < " + other, key, other, false,
                   [](double v, double o, double) { return v < o; });
    }

    /** Finite and within [lo, hi]. */
    Claim &
    within(const std::string &key, double lo, double hi)
    {
        std::string text =
            lo == -INFINITY && hi == INFINITY ? key + " finite"
            : lo == -INFINITY                 ? key + " <= " + g(hi)
            : hi == INFINITY                  ? key + " >= " + g(lo)
                : key + " in [" + g(lo) + ", " + g(hi) + "]";
        return add(text, key, "", false, [=](double v, double, double) {
            return std::isfinite(v) && lo <= v && v <= hi;
        });
    }

    Claim &
    atLeast(const std::string &key, double lo)
    {
        return within(key, lo, INFINITY);
    }

    Claim &
    atMost(const std::string &key, double hi)
    {
        return within(key, -INFINITY, hi);
    }

    /** Within relative @p tolerance of the recorded paper.<key>. */
    Claim &
    near(const std::string &key, double tolerance)
    {
        return add(key + " within " + g(100 * tolerance) + "% of paper",
                   key, "", true, [=](double v, double, double p) {
                       return std::fabs(v - p) <= tolerance * std::fabs(p);
                   });
    }

    Claim &
    never(const std::string &key)
    {
        return add(key + " never", key, "", false,
                   [](double v, double, double) { return std::isnan(v); });
    }

    Claim &
    finite(const std::string &key)
    {
        return within(key, -INFINITY, INFINITY);
    }
    /// @}

    /** All recorded phases of @p ps under @p scope. */
    void
    phaseStats(const std::string &scope, const PhaseStats &ps)
    {
        for (uint32_t i = 0; i < phaseCount; i++) {
            const Histogram &h = ps.histogram(Phase(i));
            if (h.count() == 0)
                continue;
            phases[scope + "." + phaseName(Phase(i))] = h.mean();
        }
    }

    /** The one-line summary of @p h (Histogram::summaryJson) under
     *  @p key; an empty histogram adds no key. */
    void
    distribution(const std::string &key, const Histogram &h)
    {
        if (h.count() == 0)
            return;
        std::ostringstream os;
        h.summaryJson(os);
        dists[key] = os.str();
    }

    /** Embed a pre-rendered JSON value as top-level key @p key
     *  (regime timelines, recovery tables). The value must itself be
     *  deterministic: it lands in the byte-compared file. */
    void
    section(const std::string &key, std::string json)
    {
        sections[key] = std::move(json);
    }

    /** Attribute host wall-clock since the last mark (or since
     *  construction) to @p phase_name in the HOST_ sidecar. */
    void
    hostMark(const std::string &phase_name)
    {
        auto now = std::chrono::steady_clock::now();
        hostPhases.emplace_back(
            phase_name,
            std::chrono::duration<double, std::milli>(now - hostLast)
                .count());
        hostLast = now;
    }

    /**
     * Score the claims, then write the report and its HOST_ sidecar.
     * @return the number of failed claims that are not declared
     * deviations.
     */
    size_t
    write()
    {
        written = true;
        std::map<std::string, std::string> verdicts;
        size_t failed = scoreClaims(verdicts);
        const char *dir = std::getenv("XPC_BENCH_DIR");
        std::string path = (dir && *dir ? std::string(dir) + "/" : "");
        path += "BENCH_" + name + ".json";
        std::ofstream out(path);
        fatal_if(!out, "bench %s cannot write %s", name.c_str(),
                 path.c_str());
        out << "{\n  \"bench\": " << json::str(name);
        auto obj = [&](const char *key,
                       const std::map<std::string, std::string> &m) {
            out << ",\n  " << json::str(key) << ": {";
            bool first = true;
            for (const auto &[k, v] : m) {
                out << (first ? "" : ",") << "\n    " << json::str(k)
                    << ": " << v;
                first = false;
            }
            out << (m.empty() ? "" : "\n  ") << "}";
        };
        auto nums = [&](const std::map<std::string, double> &m) {
            std::map<std::string, std::string> mm;
            for (const auto &[k, v] : m)
                mm[k] = json::num(v);
            return mm;
        };
        obj("config", configs);
        obj("metrics", nums(metrics));
        obj("phases", nums(phases));
        obj("distributions", dists);
        if (!verdicts.empty())
            obj("claims", verdicts);
        for (const auto &[k, v] : sections)
            out << ",\n  " << json::str(k) << ": " << v;
        out << "\n}\n";
        writeHostSidecar(dir);
        return failed;
    }

  private:
    static std::string
    g(double v)
    {
        return Col("", "%g").show(v);
    }

    Claim &
    add(std::string text, const std::string &key, const std::string &other,
        bool paper, std::function<bool(double, double, double)> holds)
    {
        claims.push_back(
            {std::move(text), key, other, paper, std::move(holds), ""});
        return claims.back();
    }

    /**
     * Print the scorecard, name every failure on stderr and fill
     * @p verdicts (claim -> pass / fail / deviation).
     * @return the failures that are not declared deviations.
     */
    size_t scoreClaims(std::map<std::string, std::string> &verdicts);

    void
    writeHostSidecar(const char *dir)
    {
        std::string path = (dir && *dir ? std::string(dir) + "/" : "");
        path += "HOST_" + name + ".json";
        std::ofstream out(path);
        if (!out)
            return;
        double total = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - hostStart)
                           .count();
        out << "{\n  \"bench\": " << json::str(name)
            << ",\n  \"host_ms\": {\n    \"total\": " << json::num(total);
        for (const auto &[k, v] : hostPhases)
            out << ",\n    " << json::str(k) << ": " << json::num(v);
        // Host memory, like host time, varies run to run: it goes
        // here and never into the byte-compared report.
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        out << "\n  },\n  \"peak_rss_mb\": "
            << json::num(double(ru.ru_maxrss) / 1024.0) << "\n}\n";
    }

    std::string name;
    std::map<std::string, std::string> configs;
    std::map<std::string, double> metrics;
    std::map<std::string, double> phases;
    std::map<std::string, std::string> dists;
    std::map<std::string, std::string> sections;
    std::deque<Claim> claims; ///< deque: a returned Claim & stays valid
    std::vector<std::pair<std::string, double>> hostPhases;
    std::chrono::steady_clock::time_point hostStart =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point hostLast = hostStart;
    bool written = false;
};

/**
 * A printed table whose every numeric cell is a report metric. Each
 * column is declared once (Col); row() records the row's numeric
 * cells, unrounded, under the column key joined with the row key
 * (the label, unless given), and print() prints the caption and the
 * rows, every column as wide as its widest cell, header included,
 * plus a two-space gap. A number in a column without a key is an
 * error, so every printed number is pinned by construction. The
 * header line is left out when every header is empty, the banner
 * when the caption is.
 */
class Table
{
  public:
    /** @p cols[0] is the row-label column. */
    Table(BenchReport &report, std::string caption, std::vector<Col> cols)
        : report(report), caption(std::move(caption)),
          cols(std::move(cols))
    {}

    void
    row(const std::string &label, const std::vector<Cell> &cells)
    {
        row(label, label, cells);
    }

    void
    row(const std::string &label, const std::string &key,
        const std::vector<Cell> &cells)
    {
        panic_if(cells.size() + 1 != cols.size(),
                 "table '%s': row %s has %zu cells for %zu columns",
                 caption.c_str(), label.c_str(), cells.size(),
                 cols.size() - 1);
        std::vector<std::string> line = {label};
        for (size_t i = 0; i < cells.size(); i++) {
            const Col &col = cols[i + 1];
            const double *v = std::get_if<double>(&cells[i]);
            if (!v) {
                line.push_back(std::get<std::string>(cells[i]));
                continue;
            }
            panic_if(col.key.empty(),
                     "table '%s': column '%s' prints a number but has "
                     "no report key",
                     caption.c_str(), col.header.c_str());
            report.metric(col.keyFor(key), *v);
            line.push_back(col.show(*v));
        }
        lines.push_back(std::move(line));
    }

    void
    print() const
    {
        if (!caption.empty())
            std::printf("\n=== %s ===\n", caption.c_str());
        std::vector<std::vector<std::string>> all;
        std::vector<std::string> header;
        for (const Col &c : cols)
            header.push_back(c.header);
        if (header != std::vector<std::string>(cols.size()))
            all.push_back(header);
        all.insert(all.end(), lines.begin(), lines.end());
        std::vector<size_t> width(cols.size());
        for (const auto &line : all)
            for (size_t c = 0; c < line.size(); c++)
                width[c] = std::max(width[c], line[c].size());
        for (const auto &line : all) {
            std::string out;
            for (size_t c = 0; c < line.size(); c++)
                out += line[c] +
                       std::string(width[c] + 2 - line[c].size(), ' ');
            out.erase(out.find_last_not_of(' ') + 1);
            std::printf("%s\n", out.c_str());
        }
    }

  private:
    BenchReport &report;
    std::string caption;
    std::vector<Col> cols;
    std::vector<std::vector<std::string>> lines;
};

inline size_t
BenchReport::scoreClaims(std::map<std::string, std::string> &verdicts)
{
    if (claims.empty())
        return 0;
    auto find = [&](const std::string &key) -> const double * {
        auto it = metrics.find(key);
        return it == metrics.end() ? nullptr : &it->second;
    };
    Table card(*this, "Scorecard",
               {{"claim"}, {"paper"}, {"simulated"}, {"verdict"}});
    size_t passed = 0, deviated = 0, failed = 0;
    for (const Claim &c : claims) {
        const double *v = find(c.key);
        const double *o = find(c.other);
        const double *p = find("paper." + c.key);
        const double *po = find("paper." + c.other);
        bool order = !c.other.empty();
        bool recorded = v && (!order || o) && (!c.paper || p);
        std::string sim = !recorded ? "not recorded"
                          : order   ? g(*v) + " vs " + g(*o)
                                    : g(*v);
        std::string paper = !p       ? "-"
                            : !order ? g(*p)
                            : po     ? g(*p) + " vs " + g(*po)
                                     : "-";
        std::string verdict = "pass";
        if (recorded && c.holds(*v, o ? *o : NAN, p ? *p : NAN)) {
            passed++;
        } else if (recorded && !c.deviation.empty()) {
            deviated++;
            verdict = "deviation";
        } else {
            failed++;
            verdict = "fail";
            std::fprintf(stderr, "bench %s: claim failed: %s (%s)\n",
                         name.c_str(), c.text.c_str(), sim.c_str());
        }
        verdicts[c.text] = json::str(verdict);
        card.row(c.text, {paper, sim,
                          verdict == "deviation" ? "deviation: " + c.deviation
                                                 : verdict});
    }
    card.row("total", {"", "",
                       std::to_string(passed) + " pass, " +
                           std::to_string(deviated) +
                           " declared deviation(s), " +
                           std::to_string(failed) + " fail"});
    card.print();
    std::fflush(stdout);
    return failed;
}

/**
 * When @p tracer is on, reconstruct the per-request critical paths
 * from its ring and attach their aggregates - end-to-end p50/p99 and
 * per-span cycle distributions - to @p report under "<scope>.*". A
 * strict no-op while tracing is off, so BENCH_*.json stays
 * byte-identical with the tracer disabled.
 */
inline void
attachCritPath(BenchReport &report, const trace::Tracer &tracer,
               const std::string &scope = "critpath")
{
    if (!tracer.enabled())
        return;
    auto reports = critpath::analyze(tracer);
    if (reports.empty())
        return;
    critpath::CritPathStats agg;
    agg.addAll(reports);
    report.distribution(scope + ".total_cycles", agg.total());
    for (const auto &[span_name, h] : agg.spans())
        report.distribution(scope + "." + span_name, h);
}

/**
 * Walk @p group's subtree and attach every non-empty Histogram to
 * @p report as "<scope>.<path>.<stat>". This is how the per-span
 * registry stats (the kernel/runtime "phases" groups) reach the BENCH
 * json "distributions" section instead of leaving it `{}`; empty
 * stats are skipped, so rigs that never fire a stat add no keys.
 */
inline void
attachRegistryDistributions(BenchReport &report, const StatGroup &group,
                            const std::string &scope)
{
    for (const auto &[stat_name, h] : group.histogramEntries())
        report.distribution(scope + "." + stat_name, *h);
    for (const StatGroup *kid : group.children())
        attachRegistryDistributions(report, *kid,
                                    scope + "." + kid->name());
}

/** An echo service wired on a fresh system of the given flavor. */
struct EchoRig
{
    std::unique_ptr<core::System> sys;
    kernel::Thread *server = nullptr;
    kernel::Thread *client = nullptr;
    core::ServiceId svc = 0;

    explicit EchoRig(core::SystemFlavor flavor,
                     const hw::MachineConfig *machine = nullptr,
                     CoreId server_core = 0)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        if (machine)
            opts.machine = *machine;
        sys = std::make_unique<core::System>(opts);
        server = &sys->spawn("server", server_core);
        client = &sys->spawn("client", 0);
        core::ServiceDesc desc;
        desc.name = "echo";
        desc.handlerThread = server;
        desc.maxMsgBytes = 256 * 1024;
        svc = sys->transport().registerService(
            desc, [](core::ServerApi &api) {
                api.replyFromRequest(0, api.requestLen());
            });
        sys->transport().connect(*client, svc);
    }

    /** One call with @p len request bytes; returns the result. */
    core::CallResult
    call(uint64_t len)
    {
        hw::Core &core = sys->core(0);
        core::Transport &tr = sys->transport();
        tr.requestArea(core, *client, 64 * 1024);
        if (len > 0) {
            static std::vector<uint8_t> payload;
            payload.assign(len, 0x6b);
            tr.clientWrite(core, *client, 0, payload.data(), len);
        }
        return tr.call(core, *client, svc, 1, len, 64 * 1024);
    }
};

/** Block device + FS server + client, on a given flavor. */
struct FsRig
{
    std::unique_ptr<core::System> sys;
    std::unique_ptr<core::RecordingTransport> rec;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fsrv;
    kernel::Thread *client = nullptr;

    explicit FsRig(core::SystemFlavor flavor, uint64_t disk_blocks = 4096,
                   const hw::MachineConfig *machine = nullptr)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        if (machine)
            opts.machine = *machine;
        sys = std::make_unique<core::System>(opts);
        rec = std::make_unique<core::RecordingTransport>(
            sys->transport());
        kernel::Thread &dev_t = sys->spawn("blockdev");
        kernel::Thread &fs_t = sys->spawn("fs");
        client = &sys->spawn("client");
        dev = std::make_unique<services::BlockDeviceServer>(
            *rec, dev_t, disk_blocks);
        rec->connect(fs_t, dev->id());
        fsrv = std::make_unique<services::FsServer>(*rec, fs_t,
                                                    dev->id(),
                                                    disk_blocks);
        rec->connect(*client, fsrv->id());
    }
};

/** Netstack + loopback + client. */
struct NetRig
{
    std::unique_ptr<core::System> sys;
    std::unique_ptr<services::LoopbackDeviceServer> loop;
    std::unique_ptr<services::NetStackServer> net;
    kernel::Thread *client = nullptr;
    int64_t srvSock = 0;
    int64_t cliSock = 0;

    explicit NetRig(core::SystemFlavor flavor)
    {
        core::SystemOptions opts;
        opts.flavor = flavor;
        opts.machine = hw::lowRiscKc705();
        sys = std::make_unique<core::System>(opts);
        kernel::Thread &dev_t = sys->spawn("loopdev");
        kernel::Thread &net_t = sys->spawn("netstack");
        client = &sys->spawn("client");
        loop = std::make_unique<services::LoopbackDeviceServer>(
            sys->transport(), dev_t);
        sys->transport().connect(net_t, loop->id());
        net = std::make_unique<services::NetStackServer>(
            sys->transport(), net_t, loop->id());
        sys->transport().connect(*client, net->id());

        hw::Core &core = sys->core(0);
        core::Transport &tr = sys->transport();
        srvSock = services::NetStackServer::clientSocket(tr, core,
                                                         *client,
                                                         net->id());
        cliSock = services::NetStackServer::clientSocket(tr, core,
                                                         *client,
                                                         net->id());
        services::NetStackServer::clientListen(tr, core, *client,
                                               net->id(), srvSock,
                                               80);
        services::NetStackServer::clientConnect(tr, core, *client,
                                                net->id(), cliSock,
                                                80);
    }
};

} // namespace xpc::bench

#endif // XPC_BENCH_BENCH_UTIL_HH
