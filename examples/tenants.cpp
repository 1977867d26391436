/**
 * @file
 * Multi-tenant blast-radius demo (DESIGN.md §4g).
 *
 * Two tenants, A and B, each run the full three-workload stack -
 * fs (fs -> blockdev), web (http -> cache -> crypto) and kv - under
 * the same service names in their own namespaces, supervised, with
 * tenancy enforcement on. With --kill-tenant A the demo crash-loops
 * every one of A's services (round-robin process kills plus a seeded
 * six-op fault storm) while both tenants keep issuing traffic: A
 * grinds through restarts and retries, B does not notice, and the
 * cross-tenant counters stay zero. Build & run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/tenants --kill-tenant A
 *   ./build/examples/tenants --kill-tenant A --iters 96 --json
 *
 * The --json line is byte-identical for the same --seed (the
 * tenants_replay ctest case gates on this). With XPC_TRACE=1 the run
 * also writes tenants_trace.json and prints its critical-path top
 * view on stderr: outcome rows, outcome counts per tenant and one
 * line per request. Exit status: 0 when containment held (both
 * tenants healthy at the end, zero cross-tenant grants/calls/
 * resolves), 1 otherwise, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/tenant_rig.hh"
#include "sim/critpath.hh"
#include "sim/fault_injector.hh"
#include "sim/trace.hh"

using namespace xpc;
using apps::TenantRig;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: tenants [options]\n"
        "  --kill-tenant A|B|off  crash-loop that tenant's services\n"
        "                         (default off: calm baseline)\n"
        "  --iters N              workload iterations (default 48)\n"
        "  --seed S               fault-plan seed (default 0x7e4a47)\n"
        "  --json                 one machine-readable line on stdout\n");
}

struct TenantTally
{
    TenantRig::OpCounts counts;
    uint64_t restarts = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    int iters = 48;
    uint64_t seed = 0x7e4a47;
    bool json = false;
    kernel::TenantId victim = kernel::defaultTenant; // none

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--iters") {
            iters = std::atoi(next());
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--kill-tenant") {
            std::string who = next();
            if (who == "A" || who == "a")
                victim = TenantRig::tenantA;
            else if (who == "B" || who == "b")
                victim = TenantRig::tenantB;
            else if (who == "off")
                victim = kernel::defaultTenant;
            else {
                usage();
                return 2;
            }
        } else {
            usage();
            return 2;
        }
    }

    FaultInjector inj(FaultPlan::generate(seed, 160, 4000, 0x3f));
    TenantRig rig;
    rig.system().machine().setFaultInjector(&inj);

    const kernel::TenantId tenants[2] = {TenantRig::tenantA,
                                         TenantRig::tenantB};
    TenantTally tally[2];
    const bool storm = victim != kernel::defaultTenant;

    for (int i = 0; i < iters; i++) {
        if (storm) {
            if (i % 24 == 1)
                rig.killAll(victim);
            else if (i % 2 == 0)
                rig.killOne(victim, unsigned(i / 2));
        }
        for (int t = 0; t < 2; t++) {
            uint64_t before = rig.supervisor().restarts.value();
            // The storm follows the victim's traffic only; gating it
            // off around the other tenant's ops mirrors the claim -
            // the substrate does not couple the two.
            inj.enabled = storm && tenants[t] == victim;
            rig.runMix(tenants[t], i, tally[t].counts);
            tally[t].restarts +=
                rig.supervisor().restarts.value() - before;
        }
        inj.enabled = false;
        if (!json && i % 8 == 7) {
            std::printf("iter %3d  A ok=%llu failed=%llu "
                        "restarts=%llu | B ok=%llu failed=%llu "
                        "restarts=%llu\n",
                        i + 1,
                        (unsigned long long)tally[0].counts.ok,
                        (unsigned long long)tally[0].counts.failed,
                        (unsigned long long)tally[0].restarts,
                        (unsigned long long)tally[1].counts.ok,
                        (unsigned long long)tally[1].counts.failed,
                        (unsigned long long)tally[1].restarts);
        }
    }

    // After the storm: one per-tenant heal must restore the victim.
    if (storm)
        rig.supervisor().heal(victim);
    bool healthy = rig.allUp(TenantRig::tenantA) &&
                   rig.allUp(TenantRig::tenantB) &&
                   rig.kvGet(TenantRig::tenantA, 1) >= 0 &&
                   rig.kvGet(TenantRig::tenantB, 1) >= 0;

    // With XPC_TRACE=1, export the run and print its top view, whose
    // per-tenant rows group outcomes by the tenant instants the call
    // bracket emits. Diagnostics go to stderr so the --json stdout
    // line stays byte-comparable.
    trace::Tracer &tracer = rig.system().machine().tracer();
    if (tracer.enabled()) {
        const char *path = "tenants_trace.json";
        if (tracer.exportChromeJson(path))
            std::fprintf(stderr, "trace -> %s\n", path);
        std::fprintf(stderr, "%s",
                     critpath::formatTop(critpath::analyze(tracer))
                         .c_str());
    }

    uint64_t grants = rig.transport().crossTenantGrants.value();
    uint64_t cross_calls = rig.transport().crossTenantCalls.value();
    uint64_t resolves = rig.nameServer().crossTenantResolves.value();
    bool contained = grants == 0 && cross_calls == 0 && resolves == 0;

    if (json) {
        std::printf(
            "{\"seed\":%llu,\"iters\":%d,\"victim\":%u,"
            "\"faults_fired\":%zu,"
            "\"a\":{\"ok\":%llu,\"failed\":%llu,\"restarts\":%llu},"
            "\"b\":{\"ok\":%llu,\"failed\":%llu,\"restarts\":%llu},"
            "\"cross_tenant_grants\":%llu,"
            "\"cross_tenant_calls\":%llu,"
            "\"cross_tenant_resolves\":%llu,"
            "\"healthy\":%s}\n",
            (unsigned long long)seed, iters, unsigned(victim),
            inj.fired().size(),
            (unsigned long long)tally[0].counts.ok,
            (unsigned long long)tally[0].counts.failed,
            (unsigned long long)tally[0].restarts,
            (unsigned long long)tally[1].counts.ok,
            (unsigned long long)tally[1].counts.failed,
            (unsigned long long)tally[1].restarts,
            (unsigned long long)grants,
            (unsigned long long)cross_calls,
            (unsigned long long)resolves, healthy ? "true" : "false");
    } else {
        std::printf(
            "\n%s: A ok=%llu restarts=%llu | B ok=%llu restarts=%llu\n"
            "cross-tenant grants=%llu calls=%llu resolves=%llu -> %s\n",
            storm ? "after the storm" : "calm run",
            (unsigned long long)tally[0].counts.ok,
            (unsigned long long)tally[0].restarts,
            (unsigned long long)tally[1].counts.ok,
            (unsigned long long)tally[1].restarts,
            (unsigned long long)grants,
            (unsigned long long)cross_calls,
            (unsigned long long)resolves,
            contained && healthy ? "contained" : "BREACHED");
    }
    return contained && healthy ? 0 : 1;
}
