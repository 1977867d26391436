/**
 * @file
 * Open-loop tail-latency quickstart (DESIGN.md §4h).
 *
 * Drives the N-tenant supervised mesh (fs, httpd, kv) with a
 * seeded Poisson arrival schedule at a configured offered rate and
 * prints the per-service / per-tenant / per-outcome latency
 * histograms plus the windowed goodput curves. Build & run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/loadgen --rate 300
 *   ./build/examples/loadgen --rate 600 --requests 4000 --json
 *
 * The --json document is byte-identical for the same --seed (the
 * loadgen_replay ctest case gates on this). With XPC_TRACE=1 the run
 * also exports the time-series as Perfetto counter tracks beside the
 * causal trace and prints the trace's top view on stderr.
 * Exit status: 0 on a completed run, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "apps/loadgen.hh"
#include "sim/critpath.hh"
#include "sim/trace.hh"

using namespace xpc;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: loadgen [options]\n"
        "  --rate R       offered requests per Mcycle (default 300)\n"
        "  --requests N   schedule length (default 2000)\n"
        "  --seed S       schedule seed (default 42)\n"
        "  --tenants N    tenants, 1..8 (default 2)\n"
        "  --theta T      Zipf skew for tenant 1 (default 0.99)\n"
        "  --theta-step D tenant t draws keys at theta - (t-1)*D\n"
        "  --deadline D   per-request deadline cycles, 0 = none\n"
        "                 (default 400000)\n"
        "  --window W     time-series window cycles (default 100000)\n"
        "  --breakers     enable circuit breakers (default off)\n"
        "  --knee K       capacity knee per Mcycle; enables the SLO\n"
        "                 regime tracker (default off)\n"
        "  --retries N    retry ladder depth per request (default 1:\n"
        "                 open-loop single attempt)\n"
        "  --retry-budget enable the per-(tenant, service) retry\n"
        "                 budget (default off)\n"
        "  --tier-mix C:D:S  criticality mix weights critical:default:\n"
        "                 sheddable (default 0:1:0, untiered)\n"
        "  --adaptive     AIMD adaptive admission watermark\n"
        "  --brownout     criticality-tiered admission brownout\n"
        "  --json         full JSON document on stdout\n");
}

} // namespace

int
main(int argc, char **argv)
{
    apps::LoadGenOptions opts;
    bool json = false;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--rate") {
            opts.offeredPerMcycle = std::atof(next());
        } else if (arg == "--requests") {
            opts.requests = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--tenants") {
            opts.tenants = uint32_t(std::atoi(next()));
        } else if (arg == "--theta") {
            opts.zipfTheta = std::atof(next());
        } else if (arg == "--theta-step") {
            opts.zipfThetaStep = std::atof(next());
        } else if (arg == "--knee") {
            opts.slo.kneePerMcycle = std::atof(next());
        } else if (arg == "--deadline") {
            opts.deadlineCycles = Cycles(
                std::strtoull(next(), nullptr, 0));
        } else if (arg == "--window") {
            opts.windowCycles = Cycles(
                std::strtoull(next(), nullptr, 0));
        } else if (arg == "--breakers") {
            opts.breakers = true;
        } else if (arg == "--retries") {
            opts.maxAttempts = uint32_t(std::atoi(next()));
        } else if (arg == "--retry-budget") {
            opts.retryBudget.enabled = true;
        } else if (arg == "--tier-mix") {
            unsigned c = 0, d = 0, s = 0;
            if (std::sscanf(next(), "%u:%u:%u", &c, &d, &s) != 3 ||
                c + d + s == 0) {
                usage();
                return 2;
            }
            opts.tierCriticalWeight = c;
            opts.tierDefaultWeight = d;
            opts.tierSheddableWeight = s;
        } else if (arg == "--adaptive") {
            opts.admission.adaptive = true;
        } else if (arg == "--brownout") {
            opts.admission.brownout = true;
        } else if (arg == "--json") {
            json = true;
        } else {
            usage();
            return 2;
        }
    }
    if (opts.offeredPerMcycle <= 0 || opts.tenants < 1 ||
        opts.tenants > apps::TenantRig::maxTenants ||
        opts.windowCycles.value() == 0 || opts.maxAttempts < 1) {
        usage();
        return 2;
    }

    apps::LoadGen gen(opts);
    const apps::LoadGenResult &res = gen.run();

    // With XPC_TRACE=1 the curves land beside the causal spans in
    // the same Perfetto file, and the top view breaks the traced
    // requests down by outcome and tenant. Diagnostics go to stderr
    // so the --json stdout stays byte-comparable.
    trace::Tracer &tracer = gen.rig().system().machine().tracer();
    if (tracer.enabled()) {
        res.series.exportCounterTracks(tracer, 999);
        for (const auto &t : res.sloTrackers)
            t->exportTrace(tracer, 998);
        const char *path = "loadgen_trace.json";
        if (tracer.exportChromeJson(path))
            std::fprintf(stderr, "trace -> %s\n", path);
        std::fprintf(stderr, "%s",
                     critpath::formatTop(critpath::analyze(tracer))
                         .c_str());
    }

    if (json) {
        res.dumpJson(std::cout);
        return 0;
    }

    std::printf("offered %.1f/Mcycle -> goodput %.1f/Mcycle over "
                "%llu cycles\n",
                res.offeredPerMcycleActual(), res.goodputPerMcycle(),
                (unsigned long long)res.elapsedCycles());
    std::printf("outcomes:");
    for (size_t i = 0; i < apps::loadOutcomeCount; i++)
        std::printf(" %s=%llu",
                    apps::loadOutcomeName(apps::LoadOutcome(i)),
                    (unsigned long long)res.counts[i]);
    std::printf("\n");
    if (const slo::RegimeTracker *t = res.sloAll()) {
        std::printf("slo[all]: healthy=%llu overloaded=%llu "
                    "metastable=%llu transitions=%llu\n",
                    (unsigned long long)t->windowsHealthy.value(),
                    (unsigned long long)t->windowsOverloaded.value(),
                    (unsigned long long)t->windowsMetastable.value(),
                    (unsigned long long)t->transitionCount.value());
    }
    for (size_t i = 0; i < 3; i++) {
        const Histogram &h = res.latencyService[i];
        if (h.count() == 0)
            continue;
        std::printf("%-6s p50=%-8.0f p99=%-8.0f p999=%-8.0f "
                    "max=%.0f (n=%llu)\n",
                    apps::LoadGenResult::serviceNames[i],
                    h.quantile(0.5), h.quantile(0.99),
                    h.quantile(0.999), h.max(),
                    (unsigned long long)h.count());
    }
    return 0;
}
