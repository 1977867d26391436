/**
 * @file
 * Crash-point exploration CLI.
 *
 * Drives sim/explorer over the crashable workloads in
 * apps/crash_workloads: census the fault space, sweep every single
 * crash site (plus sampled crash-during-recovery pairs), replay one
 * exact plan, or shrink a failing plan to its minimal reproducer.
 * Every failing plan is printed with the replay command line that
 * reproduces it. Build & run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/explore --workload minidb --all-singles
 *   ./build/examples/explore --workload torn-pair --crash-at 12+3
 *   ./build/examples/explore --workload torn-pair --shrink 40+9+7
 *
 * Exit status: 0 when every explored plan recovered consistently (or
 * the shrink succeeded), 1 on inconsistency, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/crash_workloads.hh"
#include "sim/explorer.hh"

using namespace xpc;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: explore --workload NAME MODE [options]\n"
        "  workloads: minidb (WAL), minidb-rollback, xv6fs,\n"
        "             torn-pair (deliberately crash-unsafe)\n"
        "  modes:\n"
        "    --count            census the fault space, run nothing\n"
        "    --all-singles      crash once at every site\n"
        "    --pairs N          also sample N crash-during-recovery "
        "pairs\n"
        "    --crash-at PLAN    run one plan (e.g. 12+3)\n"
        "    --shrink PLAN      minimize a failing plan\n"
        "  options:\n"
        "    --seed S           pair-sampling seed (default 42)\n"
        "    --json             machine-readable report on stdout\n");
}

/** Parse "12+3" (or "12,3") into a plan. */
bool
parsePlan(const std::string &text, std::vector<uint64_t> *plan)
{
    std::string cur;
    for (char c : text + "+") {
        if (c == '+' || c == ',') {
            if (cur.empty())
                return false;
            plan->push_back(std::strtoull(cur.c_str(), nullptr, 10));
            cur.clear();
        } else if (c >= '0' && c <= '9') {
            cur += c;
        } else {
            return false;
        }
    }
    return !plan->empty();
}

sim::CrashWorkloadFactory
factoryFor(const std::string &name)
{
    if (name == "minidb")
        return apps::makeMiniDbCrashWorkload(apps::JournalMode::Wal);
    if (name == "minidb-rollback")
        return apps::makeMiniDbCrashWorkload(apps::JournalMode::Rollback);
    if (name == "xv6fs")
        return apps::makeXv6FsCrashWorkload();
    if (name == "torn-pair")
        return apps::makeTornPairCrashWorkload();
    return nullptr;
}

void
printFailure(const std::string &workload, const sim::CrashOutcome &o)
{
    std::printf("FAIL plan=%s fired=%llu detail=\"%s\"\n",
                sim::planString(o.plan).c_str(),
                (unsigned long long)o.fired, o.detail.c_str());
    std::printf("  replay: explore --workload %s --crash-at %s\n",
                workload.c_str(), sim::planString(o.plan).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string mode;
    std::string plan_text;
    uint64_t pair_samples = 0;
    uint64_t seed = 42;
    bool json = false;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto want_value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = want_value("--workload");
        } else if (arg == "--count" || arg == "--all-singles") {
            mode = arg;
        } else if (arg == "--pairs") {
            mode = arg;
            pair_samples = std::strtoull(want_value("--pairs"),
                                         nullptr, 10);
        } else if (arg == "--crash-at" || arg == "--shrink") {
            mode = arg;
            plan_text = want_value(arg.c_str());
        } else if (arg == "--seed") {
            seed = std::strtoull(want_value("--seed"), nullptr, 10);
        } else if (arg == "--json") {
            json = true;
        } else {
            usage();
            return 2;
        }
    }

    sim::CrashWorkloadFactory factory = factoryFor(workload);
    if (!factory || mode.empty()) {
        usage();
        return 2;
    }

    sim::ExplorerOptions opts;
    opts.pairSamples = pair_samples;
    opts.pairSeed = seed;
    sim::Explorer explorer(std::move(factory), opts);

    if (mode == "--count") {
        std::vector<std::pair<std::string, uint64_t>> census;
        uint64_t total = explorer.countSites(&census);
        if (json) {
            sim::ExplorerReport report;
            report.totalSites = total;
            report.census = census;
            std::printf("%s\n", report.json().c_str());
        } else {
            std::printf("%llu crash sites:\n",
                        (unsigned long long)total);
            for (const auto &[kind, n] : census) {
                std::printf("  %-14s %llu\n", kind.c_str(),
                            (unsigned long long)n);
            }
        }
        return 0;
    }

    if (mode == "--crash-at") {
        std::vector<uint64_t> plan;
        if (!parsePlan(plan_text, &plan)) {
            usage();
            return 2;
        }
        sim::CrashOutcome o = explorer.runPlan(plan);
        if (o.consistent) {
            std::printf("plan=%s fired=%llu consistent\n",
                        sim::planString(o.plan).c_str(),
                        (unsigned long long)o.fired);
            return 0;
        }
        printFailure(workload, o);
        return 1;
    }

    if (mode == "--shrink") {
        std::vector<uint64_t> plan;
        if (!parsePlan(plan_text, &plan)) {
            usage();
            return 2;
        }
        if (explorer.runPlan(plan).consistent) {
            std::fprintf(stderr,
                         "plan %s recovers consistently; nothing to "
                         "shrink\n",
                         sim::planString(plan).c_str());
            return 2;
        }
        std::vector<uint64_t> minimal = explorer.shrink(plan);
        sim::CrashOutcome o = explorer.runPlan(minimal);
        std::printf("shrunk %s -> %s\n",
                    sim::planString(plan).c_str(),
                    sim::planString(minimal).c_str());
        printFailure(workload, o);
        return 0;
    }

    // --all-singles / --pairs: the full sweep.
    sim::ExplorerReport report = explorer.explore();
    if (json) {
        std::printf("%s\n", report.json().c_str());
    } else {
        std::printf("%llu sites, %zu runs, %zu failures\n",
                    (unsigned long long)report.totalSites,
                    report.outcomes.size(),
                    report.failures().size());
        for (const auto &o : report.failures())
            printFailure(workload, o);
    }
    return report.failures().empty() ? 0 : 1;
}
