#include "explorer.hh"

#include <algorithm>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace xpc::sim {

namespace {

/** Give up when recovery crashes this many times in a row. */
constexpr uint32_t maxRecoveryRounds = 8;

} // namespace

std::string
planString(const std::vector<uint64_t> &plan)
{
    std::ostringstream os;
    for (size_t i = 0; i < plan.size(); i++) {
        if (i)
            os << "+";
        os << plan[i];
    }
    return os.str();
}

std::vector<CrashOutcome>
ExplorerReport::failures() const
{
    std::vector<CrashOutcome> bad;
    for (const auto &o : outcomes) {
        if (!o.consistent)
            bad.push_back(o);
    }
    return bad;
}

std::string
ExplorerReport::json() const
{
    std::ostringstream os;
    os << "{\"total_sites\":" << totalSites << ",\"census\":{";
    for (size_t i = 0; i < census.size(); i++) {
        if (i)
            os << ",";
        os << json::str(census[i].first) << ":" << census[i].second;
    }
    os << "},\"runs\":" << outcomes.size()
       << ",\"failures\":" << failures().size() << ",\"outcomes\":[";
    for (size_t i = 0; i < outcomes.size(); i++) {
        const CrashOutcome &o = outcomes[i];
        if (i)
            os << ",";
        os << "{\"plan\":" << json::str(planString(o.plan))
           << ",\"fired\":" << o.fired
           << ",\"consistent\":" << (o.consistent ? "true" : "false");
        if (!o.detail.empty())
            os << ",\"detail\":" << json::str(o.detail);
        os << "}";
    }
    os << "]}";
    return os.str();
}

uint64_t
Explorer::countSites(
    std::vector<std::pair<std::string, uint64_t>> *census_out)
{
    auto w = factory();
    FaultInjector inj{FaultPlan{}};
    inj.armCrashPlan({});
    w->run(inj);
    panic_if(inj.crashed(), "baseline run crashed with an empty plan");
    if (census_out) {
        census_out->assign(inj.siteCensus().begin(),
                           inj.siteCensus().end());
    }
    return inj.crashSitesVisited();
}

CrashOutcome
Explorer::runPlan(const std::vector<uint64_t> &plan)
{
    CrashOutcome out;
    out.plan = plan;

    auto w = factory();
    FaultInjector inj{FaultPlan{}};
    inj.armCrashPlan(plan);
    w->run(inj);

    uint32_t rounds = 0;
    while (inj.crashed()) {
        if (++rounds > maxRecoveryRounds) {
            out.consistent = false;
            out.detail = "recovery crash-looped";
            break;
        }
        // Acknowledge the power cut: the harness (the workload's
        // recover path) discards the volatile state; durable writes
        // flow again for journal replay.
        inj.clearCrashed();
        std::string err = w->recoverAndVerify(inj);
        if (inj.crashed()) {
            // Recovery itself hit the next armed site (a pair plan):
            // crash again, recover again.
            continue;
        }
        if (!err.empty()) {
            out.consistent = false;
            out.detail = err;
        }
        break;
    }
    out.fired = inj.crashesFired().size();
    return out;
}

ExplorerReport
Explorer::exploreSingles()
{
    ExplorerReport report;
    report.totalSites = countSites(&report.census);
    for (uint64_t site = 0; site < report.totalSites; site++)
        report.outcomes.push_back(runPlan({site}));
    return report;
}

ExplorerReport
Explorer::explore()
{
    ExplorerReport report = exploreSingles();
    if (opts.pairSamples == 0 || report.totalSites == 0)
        return report;
    Rng rng(opts.pairSeed);
    for (uint64_t i = 0; i < opts.pairSamples; i++) {
        uint64_t first = rng.nextBounded(report.totalSites);
        // The second entry is relative: "this many sites into the
        // recovery that follows the first crash". Recovery's site
        // count differs from the baseline's, so sampling from the
        // baseline range is only a heuristic; a second entry past
        // recovery's end simply never fires (fired == 1).
        uint64_t second = rng.nextBounded(report.totalSites);
        report.outcomes.push_back(runPlan({first, second}));
    }
    return report;
}

std::vector<uint64_t>
Explorer::shrink(const std::vector<uint64_t> &plan)
{
    auto fails = [&](const std::vector<uint64_t> &p) {
        return !runPlan(p).consistent;
    };
    panic_if(plan.empty(), "cannot shrink an empty plan");
    panic_if(!fails(plan),
             "shrink needs a failing plan ('%s' is consistent)",
             planString(plan).c_str());

    std::vector<uint64_t> cur = plan;
    bool changed = true;
    while (changed) {
        changed = false;
        // Pass 1: drop entries (left to right, restarting the scan
        // after each successful drop keeps the order deterministic).
        for (size_t i = 0; i < cur.size() && cur.size() > 1;) {
            std::vector<uint64_t> cand = cur;
            cand.erase(cand.begin() + long(i));
            if (fails(cand)) {
                cur = std::move(cand);
                changed = true;
            } else {
                i++;
            }
        }
        // Pass 2: minimize each entry's value - try halving (fast
        // descent), then decrementing (local minimality).
        for (size_t i = 0; i < cur.size(); i++) {
            while (cur[i] > 0) {
                std::vector<uint64_t> cand = cur;
                cand[i] = cur[i] / 2;
                if (fails(cand)) {
                    cur = std::move(cand);
                    changed = true;
                    continue;
                }
                cand = cur;
                cand[i] = cur[i] - 1;
                if (fails(cand)) {
                    cur = std::move(cand);
                    changed = true;
                    continue;
                }
                break;
            }
        }
    }
    return cur;
}

} // namespace xpc::sim
