/**
 * @file
 * The open-loop tenant mesh (mesh_open_sel4): apps::LoadGen on
 * seL4 two-copy IPC, 2 tenants, kv/httpd/fs mix 6:3:1, Poisson
 * arrivals in simulated time at a fixed offered rate the mesh serves
 * without failures. Latency runs from each request's scheduled
 * arrival. TenantRig builds its own System, so the per-layer numbers
 * come from its stat registry, ServiceTelemetry and LoadGenResult
 * rather than from spans.
 */

#include <algorithm>
#include <sstream>

#include "apps/loadgen.hh"
#include "common.hh"

namespace perfbench {

using namespace xpc;

namespace {

/** Offered load, requests per Mcycle: about a quarter of capacity, so
 *  the median stays in the unqueued body of the latency distribution
 *  (at 30 it sits where queueing begins and moves 20% between seeds;
 *  timeouts begin near 40). */
constexpr double offeredPerMcycle = 20;
/** Scheduled requests per repeat. */
constexpr uint64_t requests = 60000;

apps::LoadGenOptions
meshOptions(uint64_t seed)
{
    apps::LoadGenOptions o;
    o.flavor = core::SystemFlavor::Sel4TwoCopy;
    o.seed = seed;
    o.offeredPerMcycle = offeredPerMcycle;
    o.requests = requests;
    o.tenants = 2;
    o.kvWeight = 6;
    o.httpWeight = 3;
    o.fsWeight = 1;
    return o;
}

/** Largest value of channel @p name over all windows of @p ts. */
double
channelMax(const TimeSeries &ts, const std::string &name)
{
    TimeSeries::ChannelId ch = 0;
    if (!ts.findChannel(name, ch))
        return 0;
    double best = 0;
    for (size_t w = 0; w < ts.windowCount(); w++)
        best = std::max(best, ts.at(ch, w));
    return best;
}

void
telemetryLayer(const char *metric, uint64_t calls, double cycles,
               Repeat &r)
{
    const std::string base = std::string("services.") + metric;
    r.layer[base + ".calls"] = double(calls);
    r.layer[base + ".sim_self_cycles_per_call"] =
        calls == 0 ? 0 : cycles / double(calls);
}

} // namespace

double
meshCapacity(uint64_t seed)
{
    // As bench_tail calibrates: far more offered load than the mesh
    // can serve and no deadline, so every request is eventually
    // served and goodput is the service capacity.
    apps::LoadGenOptions o = meshOptions(seed);
    o.offeredPerMcycle = 5000;
    o.requests = 10000;
    o.deadlineCycles = Cycles(0);
    apps::LoadGen gen(o);
    return gen.run().goodputPerMcycle();
}

Repeat
runMesh(const Options &opts, bool traced)
{
    Repeat r;
    double t0 = hostSeconds();
    apps::LoadGen gen(meshOptions(opts.seed));
    r.setupS = hostSeconds() - t0;

    apps::TenantRig &rig = gen.rig();
    core::System &sys = rig.system();
    const Snapshot before = snapshotLayers(sys);
    const uint64_t c0 = sys.core(0).now().value();
    const int64_t h0 = hostNs();
    const apps::LoadGenResult &res = gen.run();
    r.measuredS = double(hostNs() - h0) * 1e-9;
    const uint64_t total = sys.core(0).now().value() - c0;

    const uint64_t ok = res.counts[size_t(apps::LoadOutcome::Ok)];
    r.attempted = res.offered;
    r.failed = res.offered - ok;
    r.sim["sim_ops_per_mcycle"] = res.goodputPerMcycle();
    r.sim["sim_cycles_per_op.p50"] = res.latencyAll.quantile(0.50);
    r.sim["sim_cycles_per_op.p99"] = res.latencyAll.quantile(0.99);
    r.sim["sim_cycles_per_op.p999"] = res.latencyAll.quantile(0.999);

    const Snapshot d = delta(snapshotLayers(sys), before);
    Snapshot all;
    flatten(sys.stats(), "system", all);
    std::ostringstream sig;
    sig.precision(17);
    sig << "total=" << total << " elapsed=" << res.elapsedCycles();
    for (size_t i = 0; i < apps::loadOutcomeCount; i++)
        sig << " outcome" << i << '=' << res.counts[i];
    sig << " latency=";
    res.latencyAll.summaryJson(sig);
    for (const auto &[key, v] : all)
        sig << ' ' << key << '=' << v;
    r.signature = sig.str();

    if (!traced)
        return r;

    r.layer["apps.loadgen.backlog_max"] =
        channelMax(res.series, "admission_backlog");

    // Front-door handler time from each tenant's ServiceTelemetry
    // (handler entry to reply, nested hops included).
    uint64_t calls[3] = {};
    double cycles[3] = {};
    uint64_t shed = 0;
    for (uint32_t t = 0; t < rig.tenantCount(); t++) {
        apps::TenantRig::Stack &st = rig.stack(apps::TenantRig::tenantOf(t));
        const services::ServiceTelemetry *tel[3] = {
            st.telKv.get(), st.telHttp.get(), st.telFs.get()};
        for (int s = 0; s < 3; s++) {
            calls[s] += tel[s]->serviceCycles.count();
            cycles[s] += tel[s]->serviceCycles.sum();
        }
        for (const services::AdmissionController *adm :
             {st.admKv.get(), st.admFs.get(), st.admHttp.get()})
            if (adm)
                shed += adm->shed.value();
    }
    telemetryLayer("kv", calls[0], cycles[0], r);
    telemetryLayer("httpd", calls[1], cycles[1], r);
    telemetryLayer("fs", calls[2], cycles[2], r);
    r.layer["services.admission.shed"] = double(shed);
    r.layer["services.supervisor.restarts"] =
        double(rig.supervisor().restarts.value());

    // IPC cost from the kernel's phase attribution of each call.
    double ipc = 0;
    for (const char *phase :
         {"trap", "ipc_logic", "process_switch", "restore", "transfer"})
        ipc += at(d, std::string("kernel.phases.") + phase + ".sum");
    const double ipc_calls = at(d, "kernel.phases.trap.count");
    r.layer["core.transport.calls"] = at(d, "transport.calls");
    r.layer["core.transport.failed_calls"] = at(d, "transport.failed_calls");
    r.layer["core.transport.ipc_cycles_per_call"] =
        ipc_calls == 0 ? 0 : ipc / ipc_calls;
    r.layer["core.ipc_share"] = ipc / double(total);

    registryLayers(d, res.offered, r.layer);
    r.layer["sim.stats.samples_retained"] =
        double(samplesRetained(sys.stats()));
    r.layer["mem.host_ns_per_line"] = hostNsPerLine(sys);
    return r;
}

} // namespace perfbench
