/**
 * @file
 * Systematic crash-point exploration with failing-plan shrinking.
 *
 * The storage layers and the XPC runtime visit a numbered crash site
 * at every durable block write and every phase boundary (see
 * FaultInjector::atCrashSite). The Explorer turns that enumeration
 * into a search: run the workload once to census the fault space,
 * then re-run it crashing at each site (and at sampled site *pairs* -
 * the second entry fires during recovery, modelling a crash while
 * recovering from a crash), driving recovery and a consistency check
 * after every crash. Any failing plan can then be handed to the
 * delta-debugging shrinker, which reduces it to a locally-minimal
 * reproducer - the smallest plan (fewest entries, then smallest site
 * indexes) that still fails - printable as a replay command line.
 *
 * Everything is deterministic: sites are numbered by execution order,
 * pair sampling uses a seeded Rng, and the report serializes with a
 * stable layout, so two same-seed explorations are byte-identical.
 */

#ifndef XPC_SIM_EXPLORER_HH
#define XPC_SIM_EXPLORER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault_injector.hh"

namespace xpc::sim {

/**
 * One crashable workload instance, built fresh for every exploration
 * run. Implementations own the whole simulated machine: run() builds
 * it, enables the injector *after* setup (formatting the disk is not
 * part of the fault space) and executes the workload; when a crash
 * site fires mid-run, run() returns early with inj.crashed() set.
 * The Explorer then discards the volatile half (server process,
 * client state) by calling recoverAndVerify(), which restarts the
 * stateful services, replays their journals and checks every
 * consistency invariant, returning "" on success or a one-line
 * description of the violation. Expected failures are *returned*,
 * never panicked - the shrinker runs failing plans on purpose.
 */
class CrashWorkload
{
  public:
    virtual ~CrashWorkload() = default;

    /** Build the machine, enable @p inj, run the workload (possibly
     *  crashing partway). */
    virtual void run(FaultInjector &inj) = 0;

    /**
     * Tear down the volatile state, restart + recover the stateful
     * services and verify every invariant; then re-run a fig07-style
     * workload to completion to prove the store still works.
     * Crash sites stay armed, so recovery itself can crash (the
     * Explorer loops while inj.crashed()).
     * @return "" if consistent, else a one-line violation report.
     */
    virtual std::string recoverAndVerify(FaultInjector &inj) = 0;
};

using CrashWorkloadFactory =
    std::function<std::unique_ptr<CrashWorkload>()>;

struct ExplorerOptions
{
    /** Crash-pair samples on top of the single-site sweep (0 = only
     *  singles). Pairs model a second crash during recovery. */
    uint64_t pairSamples = 0;
    /** Seed for pair sampling (deterministic across runs). */
    uint64_t pairSeed = 42;
};

/** What one exploration run (one plan) did. */
struct CrashOutcome
{
    /** The armed plan (entries relative to the previous firing). */
    std::vector<uint64_t> plan;
    /** How many of the plan's entries actually fired. */
    uint64_t fired = 0;
    /** True when every armed-and-fired crash recovered into a
     *  consistent store (vacuously true if nothing fired). */
    bool consistent = true;
    /** The violation, when !consistent. */
    std::string detail;
};

/** A full exploration: census plus per-plan outcomes. */
struct ExplorerReport
{
    /** Sites the baseline (no-crash) run visited. */
    uint64_t totalSites = 0;
    /** Per-kind site counts from the baseline census. */
    std::vector<std::pair<std::string, uint64_t>> census;
    std::vector<CrashOutcome> outcomes;

    /** The inconsistent outcomes only. */
    std::vector<CrashOutcome> failures() const;

    /**
     * Stable JSON serialization (sorted census, outcomes in
     * execution order) - two same-seed explorations must compare
     * byte-identical through this.
     */
    std::string json() const;
};

/** "12+3" - the plan in replay-command syntax. */
std::string planString(const std::vector<uint64_t> &plan);

class Explorer
{
  public:
    Explorer(CrashWorkloadFactory factory,
             const ExplorerOptions &options = {})
        : factory(std::move(factory)), opts(options)
    {}

    /** Baseline run: census the fault space without crashing.
     *  @return sites visited; fills censusOut when non-null. */
    uint64_t countSites(
        std::vector<std::pair<std::string, uint64_t>> *census_out =
            nullptr);

    /** Run one plan: crash, recover, verify (looping while recovery
     *  itself crashes), on a fresh workload instance. */
    CrashOutcome runPlan(const std::vector<uint64_t> &plan);

    /** Sweep every single crash site. */
    ExplorerReport exploreSingles();

    /** Singles plus opts.pairSamples sampled crash pairs. */
    ExplorerReport explore();

    /**
     * Delta-debug @p plan (which must fail) to a locally-minimal
     * failing reproducer: no entry can be dropped and no entry can
     * be halved or decremented without the failure disappearing.
     * Deterministic: same plan in, same reproducer out.
     */
    std::vector<uint64_t> shrink(const std::vector<uint64_t> &plan);

  private:
    CrashWorkloadFactory factory;
    ExplorerOptions opts;
};

} // namespace xpc::sim

#endif // XPC_SIM_EXPLORER_HH
