/**
 * @file
 * Shared plumbing for the experiment benches: table printing and
 * canned system wirings (echo service, FS stack, net stack, web
 * chain) so each bench reads like the experiment it reproduces.
 */

#ifndef XPC_BENCH_BENCH_UTIL_HH
#define XPC_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/recording_transport.hh"
#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "services/net_server.hh"
#include "services/web.hh"
#include "sim/critpath.hh"

namespace xpc::bench {

/** Print a rule + centered caption. */
inline void
banner(const std::string &caption)
{
    std::printf("\n=== %s ===\n", caption.c_str());
}

/** Print a row of columns with fixed width. */
inline void
row(const std::vector<std::string> &cells, int width = 14)
{
    for (const auto &c : cells)
        std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

inline std::string
fmtU(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    return buf;
}

/**
 * Machine-readable companion to a bench's printed table.
 *
 * Collects the configuration, headline metrics, per-phase cycle
 * attribution and latency distributions of one bench run and writes
 * them as `BENCH_<name>.json` into `$XPC_BENCH_DIR` (default: the
 * working directory) when write() is called or the report is
 * destroyed. tools/stats_diff.py compares two such files and fails
 * on any difference.
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
        if (!written)
            write();
    }

    void
    config(const std::string &key, const std::string &value)
    {
        configs[key] = "\"" + value + "\"";
    }

    void
    config(const std::string &key, double value)
    {
        configs[key] = num(value);
    }

    /** Headline scalar (cycles, ops/sec, ...). */
    void
    metric(const std::string &key, double value)
    {
        metrics[key] = value;
    }

    /** Cycles attributed to @p phase under @p scope (dotted path). */
    void
    phase(const std::string &scope, const std::string &phase_name,
          double cycles)
    {
        phases[scope + "." + phase_name] = cycles;
    }

    /** All recorded phases of @p ps under @p scope. */
    void
    phaseStats(const std::string &scope, const PhaseStats &ps)
    {
        for (uint32_t i = 0; i < phaseCount; i++) {
            const Distribution &d = ps.dist(Phase(i));
            if (d.count() == 0)
                continue;
            phase(scope, phaseName(Phase(i)), d.mean());
        }
    }

    /** p50/p99 summary of @p d under @p key. */
    void
    distribution(const std::string &key, const Distribution &d)
    {
        if (d.count() == 0)
            return;
        dists[key] = "{\"count\": " + num(double(d.count())) +
                     ", \"mean\": " + num(d.mean()) +
                     ", \"p50\": " + num(d.quantile(0.5)) +
                     ", \"p99\": " + num(d.quantile(0.99)) + "}";
    }

    /** Histogram twin: count/mean/min/max/p50/p99/p999 summary. */
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

    /** @return the file path written, or "" on failure. */
    std::string
    write()
    {
        written = true;
        const char *dir = std::getenv("XPC_BENCH_DIR");
        std::string path = (dir && *dir ? std::string(dir) + "/" : "");
        path += "BENCH_" + name + ".json";
        std::ofstream out(path);
        if (!out)
            return "";
        out << "{\n  \"bench\": \"" << name << "\"";
        auto obj = [&](const char *key,
                       const std::map<std::string, std::string> &m) {
            out << ",\n  \"" << key << "\": {";
            bool first = true;
            for (const auto &[k, v] : m) {
                out << (first ? "" : ",") << "\n    \"" << k
                    << "\": " << v;
                first = false;
            }
            out << (m.empty() ? "" : "\n  ") << "}";
        };
        obj("config", configs);
        std::map<std::string, std::string> mm;
        for (const auto &[k, v] : metrics)
            mm[k] = num(v);
        obj("metrics", mm);
        mm.clear();
        for (const auto &[k, v] : phases)
            mm[k] = num(v);
        obj("phases", mm);
        obj("distributions", dists);
        for (const auto &[k, v] : sections)
            out << ",\n  \"" << k << "\": " << v;
        out << "\n}\n";
        writeHostSidecar(dir);
        return path;
    }

  private:
    static std::string
    num(double v)
    {
        // NaN and +/-inf have no JSON representation; "%g" would
        // print "inf"/"nan" tokens that break every parser. Empty
        // distributions produce exactly these, so map them to null.
        if (!std::isfinite(v))
            return "null";
        char buf[64];
        if (v == std::floor(v) && std::fabs(v) < 1e15)
            std::snprintf(buf, sizeof(buf), "%.0f", v);
        else
            std::snprintf(buf, sizeof(buf), "%.6g", v);
        return buf;
    }

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
        out << "{\n  \"bench\": \"" << name
            << "\",\n  \"host_ms\": {\n    \"total\": " << num(total);
        for (const auto &[k, v] : hostPhases)
            out << ",\n    \"" << k << "\": " << num(v);
        out << "\n  }\n}\n";
    }

    std::string name;
    std::map<std::string, std::string> configs;
    std::map<std::string, double> metrics;
    std::map<std::string, double> phases;
    std::map<std::string, std::string> dists;
    std::map<std::string, std::string> sections;
    std::vector<std::pair<std::string, double>> hostPhases;
    std::chrono::steady_clock::time_point hostStart =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point hostLast = hostStart;
    bool written = false;
};

/**
 * When tracing is on, reconstruct the per-request critical paths from
 * the trace ring and attach their aggregates - end-to-end p50/p99 and
 * per-span cycle distributions - to @p report under "<scope>.*". A
 * strict no-op while tracing is off, so BENCH_*.json stays
 * byte-identical with the tracer disabled.
 */
inline void
attachCritPath(BenchReport &report,
               const std::string &scope = "critpath")
{
    auto &tracer = trace::Tracer::global();
    if (!tracer.enabled())
        return;
    auto reports = critpath::analyze(tracer.events());
    if (reports.empty())
        return;
    critpath::CritPathStats agg;
    agg.addAll(reports);
    report.distribution(scope + ".total_cycles", agg.total());
    for (const auto &[span_name, d] : agg.spans())
        report.distribution(scope + "." + span_name, *d);
}

/**
 * Walk @p group's subtree and attach every non-empty Distribution
 * and Histogram to @p report as "<scope>.<path>.<stat>". This is how
 * the per-span registry stats (the kernel/runtime "phases" groups)
 * reach the BENCH json "distributions" section instead of leaving it
 * `{}`; empty stats are skipped, so rigs that never fire a stat add
 * no keys.
 */
inline void
attachRegistryDistributions(BenchReport &report, const StatGroup &group,
                            const std::string &scope)
{
    for (const auto &[stat_name, d] : group.distributionEntries())
        report.distribution(scope + "." + stat_name, *d);
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
