/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Repeats the workload (each repeat a fresh set-up plus a fixed-size
 * measured phase) until S host seconds have passed, checks that every
 * repeat computed correct values and identical simulated statistics,
 * and prints one JSON object as its last line:
 *   --trace 0  the end-to-end metrics (untraced repeats);
 *   --trace 1  the per-layer metrics (untraced and traced repeats in
 *              pairs; the traced ones must match the untraced ones in
 *              every simulated number).
 * Host timings are medians over repeats; the end-to-end ones are
 * scaled to nominal host speed with referenceSeconds(). Exits 1 when
 * a check fails and 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common.hh"
#include "sim/phase.hh"
#include "spans.hh"

using namespace perfbench;

namespace {

struct Metric
{
    std::string name;
    const char *unit;
};

const char *const workloads[] = {"ycsb_write_xpc", "ycsb_read_zircon",
                                 "mesh_open_sel4"};

std::vector<Metric>
endToEndMetrics()
{
    return {{"host_ops_per_s", "1/s"},
            {"setup_s", "s"},
            {"peak_rss_mb", "MB"},
            {"sim_ops_per_mcycle", "1/Mcycle"},
            {"sim_cycles_per_op.p50", "cycles"},
            {"sim_cycles_per_op.p99", "cycles"},
            {"sim_cycles_per_op.p999", "cycles"},
            {"sim_capacity_per_mcycle", "1/Mcycle"}};
}

std::vector<Metric>
perLayerMetrics()
{
    std::vector<Metric> m = {
        {"apps.minidb.host_self_us_per_op", "us"},
        {"apps.minidb.sim_self_cycles_per_op", "cycles"},
        {"apps.minidb.calls_per_op", "count"},
        {"apps.minidb.page_cache_hit_ratio", "ratio"},
        {"apps.loadgen.backlog_max", "count"},
    };
    for (const char *svc : {"fs", "blockdev", "kv", "httpd"}) {
        std::string base = std::string("services.") + svc;
        m.push_back({base + ".calls", "count"});
        if (std::string(svc) == "fs" || std::string(svc) == "blockdev")
            m.push_back({base + ".host_self_us_per_call", "us"});
        m.push_back({base + ".sim_self_cycles_per_call", "cycles"});
    }
    for (const char *name :
         {"services.blockdev.reads", "services.blockdev.writes",
          "services.admission.shed", "services.supervisor.restarts",
          "core.transport.calls", "core.transport.failed_calls"})
        m.push_back({name, "count"});
    m.push_back({"core.transport.ipc_cycles_per_call", "cycles"});
    m.push_back({"core.transport.host_self_us_per_call", "us"});
    m.push_back({"core.transport.bytes_per_call", "bytes"});
    m.push_back({"core.ipc_share", "ratio"});
    m.push_back({"core.runtime.calls", "count"});
    for (const char *name :
         {"core.runtime.trampoline_cycles", "core.runtime.xcall_cycles",
          "core.runtime.xret_cycles", "kernel.trap_cycles",
          "kernel.ipc_logic_cycles", "kernel.process_switch_cycles",
          "kernel.restore_cycles"})
        m.push_back({name, "cycles"});
    for (const char *name :
         {"kernel.fastpath_calls", "kernel.slowpath_calls", "kernel.traps",
          "kernel.context_switches", "kernel.channel_msgs", "xpc.xcalls",
          "xpc.xrets", "xpc.swapsegs", "mem.l1.hits", "mem.l1.misses",
          "mem.l1.writebacks", "mem.l2.hits", "mem.l2.misses",
          "mem.tlb.misses", "mem.tlb.flushes"})
        m.push_back({name, "count"});
    for (uint32_t i = 0; i <= xpc::phaseCount; i++) {
        std::string phase =
            i < xpc::phaseCount ? xpc::phaseName(xpc::Phase(i))
                                : "unattributed";
        m.push_back({"mem.attr." + phase + ".cycles", "cycles"});
        m.push_back({"mem.attr." + phase + ".walk_cycles", "cycles"});
    }
    m.push_back({"mem.line_accesses_per_op", "count"});
    m.push_back({"mem.host_ns_per_line", "ns"});
    m.push_back({"sim.stats.samples_retained", "count"});
    m.push_back({"sim.trace_overhead_frac", "ratio"});
    return m;
}

/** Host-timed per-layer metrics: medians, exempt from the identity
 *  check. Everything else is simulated and must repeat exactly. */
bool
isHostMetric(const std::string &name)
{
    return name.find("host_") != std::string::npos ||
           name == "sim.trace_overhead_frac";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{ycsb_write_xpc|ycsb_read_zircon|mesh_open_sel4} "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have[4] = {};
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have[0] = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            have[1] = *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            have[2] = *end == '\0' && o.seconds > 0;
        } else if (a == "--trace") {
            have[3] = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (a == "--spans-out") {
            o.spansOut = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("missing or malformed option");
    if (std::find(std::begin(workloads), std::end(workloads), o.workload) ==
        std::end(workloads))
        usage(("unknown workload " + o.workload).c_str());
    return o;
}

void
printMetric(bool first, const Metric &m, double value)
{
    // JSON has no NaN; a value missing from a failed repeat reads 0
    // beside "correct": false.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(value) ? value : 0.0, m.unit);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    const bool mesh = opts.workload == "mesh_open_sel4";
    auto run = [&](bool traced) {
        // The host's speed drifts by tens of percent over minutes on a
        // shared machine; the reference loop around each repeat tracks
        // it, and host metrics are scaled back to nominal speed.
        const double ref0 = referenceSeconds();
        Repeat r = mesh ? runMesh(opts, traced) : runYcsb(opts, traced);
        r.hostScale =
            0.5 * (ref0 + referenceSeconds()) / referenceNominalS;
        return r;
    };

    // Deterministic, so measured once per run and outside the timing.
    const double capacity =
        mesh && !opts.trace ? meshCapacity(opts.seed) : 0;

    std::vector<Repeat> plain, traced;
    const size_t min_repeats = opts.trace ? 2 : 3;
    const double start = hostSeconds();
    while (plain.size() < min_repeats || hostSeconds() - start < opts.seconds) {
        plain.push_back(run(false));
        if (opts.trace) {
            // Keep only the newest repeat's spans in memory.
            if (!traced.empty()) {
                traced.back().spans = {};
                traced.back().spans.shrink_to_fit();
            }
            traced.push_back(run(true));
        }
    }

    std::set<std::string> problems;
    uint64_t attempted = 0, failed = 0;
    for (const std::vector<Repeat> *set : {&plain, &traced}) {
        for (const Repeat &r : *set) {
            attempted += r.attempted;
            failed += r.failed;
            if (r.wrong)
                problems.insert(std::to_string(r.wrong) +
                                " ops returned a wrong value");
            if (r.signature != plain[0].signature || r.sim != plain[0].sim)
                problems.insert("simulated statistics differ between "
                                "repeats of the same seed");
            if (!r.ledgerError.empty())
                problems.insert("cycle ledger: " + r.ledgerError);
        }
    }

    const std::vector<Metric> e2e = endToEndMetrics();
    const std::vector<Metric> layers = perLayerMetrics();
    std::map<std::string, double> values;
    if (!opts.trace) {
        std::vector<double> rate, setup, raw_rate, scale;
        for (const Repeat &r : plain) {
            raw_rate.push_back(double(r.attempted) / r.measuredS);
            rate.push_back(raw_rate.back() * r.hostScale);
            setup.push_back(r.setupS / r.hostScale);
            scale.push_back(r.hostScale);
        }
        std::printf("# unscaled host_ops_per_s %.1f, host speed scale %.3f "
                    "(median over repeats)\n",
                    median(raw_rate), median(scale));
        struct rusage ru = {};
        getrusage(RUSAGE_SELF, &ru);
        values = plain[0].sim;
        values["host_ops_per_s"] = median(rate);
        values["setup_s"] = median(setup);
        values["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;
        if (mesh)
            values["sim_capacity_per_mcycle"] = capacity;
    } else {
        std::vector<double> plain_s, traced_s;
        for (const Repeat &r : plain)
            plain_s.push_back(r.measuredS);
        for (const Repeat &r : traced)
            traced_s.push_back(r.measuredS);
        for (const auto &[name, v] : traced[0].layer) {
            std::vector<double> samples;
            for (const Repeat &r : traced) {
                auto it = r.layer.find(name);
                samples.push_back(it == r.layer.end() ? NAN : it->second);
            }
            if (isHostMetric(name)) {
                values[name] = median(samples);
                continue;
            }
            values[name] = v;
            for (double s : samples)
                if (s != v)
                    problems.insert("per-layer count " + name +
                                    " differs between repeats");
        }
        values["sim.trace_overhead_frac"] =
            median(traced_s) / median(plain_s) - 1.0;

        const Repeat &last = traced.back();
        for (const std::string &row : last.ledgerRows)
            std::printf("# %s\n", row.c_str());
        if (!opts.spansOut.empty() && !last.spans.empty()) {
            std::ofstream os(opts.spansOut);
            writeSpans(os, last.spans, last.spanNames);
        }
    }

    const std::vector<Metric> &wanted = opts.trace ? layers : e2e;
    for (const auto &entry : values) {
        bool known = false;
        for (const Metric &m : wanted)
            known = known || m.name == entry.first;
        if (!known)
            problems.insert("unlisted metric " + entry.first);
    }
    for (const std::string &p : problems)
        std::fprintf(stderr, "perfbench: %s\n", p.c_str());

    std::printf("# %s seed %llu: %zu untraced and %zu traced repeats, "
                "%llu ops attempted, %llu failed\n",
                opts.workload.c_str(), (unsigned long long)opts.seed,
                plain.size(), traced.size(), (unsigned long long)attempted,
                (unsigned long long)failed);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                problems.empty() ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed);
    bool first = true;
    for (const Metric &m : wanted) {
        auto it = values.find(m.name);
        printMetric(first, m, it == values.end() ? 0 : it->second);
        first = false;
    }
    std::printf("}}\n");
    return problems.empty() ? 0 : 1;
}
