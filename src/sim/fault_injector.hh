/**
 * @file
 * Deterministic fault injection for chaos testing.
 *
 * A FaultPlan is a seeded, pre-generated schedule of faults keyed by
 * the global call sequence number: "on call #17, kill the server
 * mid-handler". The FaultInjector carries the plan through a run,
 * answers the hooks threaded through the kernels, the XPC engine and
 * the runtime, and records every fault it actually fired so a run can
 * be replayed (same seed, same config => identical fired sequence).
 *
 * Like all randomness in the tree, plans flow through the seeded Rng;
 * nothing here touches global state, so two injectors built from the
 * same seed produce byte-identical schedules.
 */

#ifndef XPC_SIM_FAULT_INJECTOR_HH
#define XPC_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "sim/types.hh"

namespace xpc {

/** What to break (the tentpole's fault taxonomy). */
enum class FaultOp : uint32_t
{
    /** Kill the callee's process mid-xcall (paper 4.2 termination). */
    KillServer,
    /** Hang the handler past the watchdog budget (paper 6.1). */
    HangServer,
    /** Revoke the relay segment the callee currently holds (4.4). */
    RevokeSeg,
    /** Corrupt the top linkage record under the running call. */
    CorruptLinkage,
    /** Force an engine exception on the next xcall. */
    EngineException,
    /** Fail a message copy (surfaces as a memory fault mid-IPC). */
    CopyFault,
    /**
     * Stall the handler: the server busy-loops and never produces a
     * reply. Only observable where a deadline (or watchdog) is
     * armed - a stalled server with no budget to exceed is simply a
     * hung caller, which is exactly the failure mode deadlines
     * exist to bound.
     */
    StallServer,
    /** Run the handler at arg x its normal cost (slow server). */
    SlowServer,
    /**
     * Corrupt the request bytes in the relay seg / message buffer
     * after the client staged them (bit-flips, or truncation when
     * arg's low bit is set). Detected by the opt-in xcall envelope.
     */
    CorruptPayload,
    /**
     * The TOCTOU case (paper 4.4: caller and callee share the relay
     * seg): the caller rewrites message bytes *while the handler
     * runs*. Modeled as a one-shot mutation of the server-visible
     * request buffer after the handler's arg-th read - so the same
     * field read twice disagrees with itself unless the parser
     * copies-then-validates.
     */
    MutateAfterHandoff,
    /** Overwrite the reply bytes after the handler sealed them,
     *  before the client consumes them. */
    GarbageReply,
};

/** How many FaultOp values exist (for plan generation and stats). */
constexpr uint32_t faultOpCount = 11;

/**
 * The fail-stop/slow tier PRs 1-9 built. An op_mask of 0 resolves to
 * exactly these, so every historical seeded plan is byte-identical:
 * the data-corruption tier below is opt-in by explicit mask.
 */
constexpr uint32_t legacyFaultOpCount = 8;
constexpr uint32_t legacyFaultOpMask = (1u << legacyFaultOpCount) - 1;

/** Mask bits for the data-corruption tier (byzantine peers). */
constexpr uint32_t corruptionFaultOpMask =
    (1u << uint32_t(FaultOp::CorruptPayload)) |
    (1u << uint32_t(FaultOp::MutateAfterHandoff)) |
    (1u << uint32_t(FaultOp::GarbageReply));

const char *faultOpName(FaultOp op);

/** Where in a call's lifetime the fault lands (Table 1 phases). */
enum class FaultPhase : uint32_t
{
    PreXcall, ///< before the transfer instruction fires
    InHandler, ///< while the migrated thread runs the handler
    PreXret,   ///< after the handler, before control returns
};

/** One scheduled fault. */
struct FaultEvent
{
    /** Global call sequence number the fault fires on (1-based). */
    uint64_t callSeq = 0;
    FaultOp op = FaultOp::CopyFault;
    FaultPhase phase = FaultPhase::PreXcall;
    /** Op-specific argument (e.g. which engine exception to force). */
    uint32_t arg = 0;
};

/** A complete seeded fault schedule. */
struct FaultPlan
{
    uint64_t seed = 0;
    /** Events sorted by callSeq; at most one per call. */
    std::vector<FaultEvent> events;

    /**
     * Generate @p count faults spread over the first @p call_span
     * calls, drawing ops from @p op_mask (bit i enables FaultOp(i);
     * 0 means the legacy fail-stop tier, legacyFaultOpMask - the
     * corruption ops must be asked for). Deterministic in @p seed.
     */
    static FaultPlan generate(uint64_t seed, uint64_t count,
                              uint64_t call_span, uint32_t op_mask = 0);
};

/**
 * Carries a FaultPlan through a run. The hooks come in two flavors:
 * schedule queries (beginCall/eventAt) used by the kernels and the
 * XPC runtime at phase boundaries, and one-shot armed faults
 * (armMemFault/armEngineException) that the memory system and engine
 * consume at the exact micro-architectural point the fault models.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

    /** Master switch: hooks are inert while false (wiring time). */
    bool enabled = false;

    /** Marks fired faults; set by hw::Machine::setFaultInjector. */
    trace::Tracer *tracer = nullptr;

    /** Advance the global call counter. @return the new sequence. */
    uint64_t beginCall() { return ++seq_; }

    /** The scheduled event for call @p seq, or nullptr. */
    const FaultEvent *eventAt(uint64_t seq) const;

    /** Log that @p ev was actually injected (the replay record). */
    void recordFired(const FaultEvent &ev);

    /// @name One-shot memory fault (consumed by MemSystem).
    /// @{
    void armMemFault() { memArmed_ = true; }
    bool
    consumeMemFault()
    {
        bool was = memArmed_;
        memArmed_ = false;
        return was;
    }
    bool memFaultArmed() const { return memArmed_; }
    /// @}

    /// @name One-shot forced engine exception (consumed by xcall).
    /// @{
    void
    armEngineException(uint32_t exc)
    {
        engExc_ = exc;
        engArmed_ = true;
    }

    /** @return true and the exception code if one is armed. */
    bool
    consumeEngineException(uint32_t *exc)
    {
        if (!engArmed_)
            return false;
        engArmed_ = false;
        *exc = engExc_;
        return true;
    }
    /// @}

    /// @name One-shot hostile-peer mutation (MutateAfterHandoff).
    ///
    /// Armed by the kernels/runtime when the scheduled fault is
    /// MutateAfterHandoff; the server-side request-read paths call
    /// noteServerRead() after each read, and when it returns true
    /// they flip bits in the bytes they just served - the source
    /// buffer, not the destination - so the *next* fetch of the same
    /// field disagrees with the first. The owning call path disarms
    /// at handler exit so an unconsumed arming never leaks into a
    /// later call.
    /// @{
    void
    armHandoffMutation(const FaultEvent &ev)
    {
        mutateArmed_ = true;
        mutateEvent_ = ev;
        mutateCountdown_ = ev.arg ? ev.arg : 1;
    }

    /** One server-side request read happened; true = mutate now
     *  (the firing is recorded here - the caller must mutate). */
    bool
    noteServerRead()
    {
        if (!enabled || !mutateArmed_)
            return false;
        if (--mutateCountdown_ > 0)
            return false;
        mutateArmed_ = false;
        recordFired(mutateEvent_);
        return true;
    }

    void clearHandoffMutation() { mutateArmed_ = false; }
    /// @}

    /// @name Enumerable crash points (systematic exploration).
    ///
    /// The storage layers and the XPC runtime visit a crash site at
    /// every durable block write and every XPC phase boundary; sites
    /// are numbered 0, 1, 2, ... in execution order, so one baseline
    /// run censuses the whole fault space and each exploration run
    /// re-executes the workload crashing at exactly the armed sites.
    /// A firing latches crashed(): the block device then suppresses
    /// every subsequent durable write, freezing the disk at the exact
    /// prefix a power cut would leave behind. Plan entries after the
    /// first are *relative*: the site counter restarts at each
    /// firing, so {12, 3} means "crash at site 12, then again 3
    /// sites into the recovery that follows".
    /// @{

    /** Arm a crash plan (entries consumed in order, never sorted). */
    void
    armCrashPlan(std::vector<uint64_t> sites)
    {
        crashPlan_ = std::move(sites);
        crashNext_ = 0;
        crashed_ = false;
        siteSeq_ = 0;
        siteTotal_ = 0;
        siteCensus_.clear();
        crashLog_.clear();
    }

    /**
     * Visit one crash site. Counts it, and latches crashed() when
     * the armed plan names it. Inert while disabled, and while
     * already crashed (a dead machine executes nothing, so the
     * writes it never issues are not sites).
     * @return the site's index (relative to the last firing).
     */
    uint64_t atCrashSite(const char *kind);

    /** True between a crash-site firing and clearCrashed(). The
     *  block device suppresses durable writes while this holds. */
    bool crashed() const { return crashed_; }

    /** Acknowledge the crash (the harness has torn down the dead
     *  components); durable writes flow again, e.g. for recovery. */
    void clearCrashed() { crashed_ = false; }

    /** Sites visited since arming (the baseline census). */
    uint64_t crashSitesVisited() const { return siteTotal_; }

    /** Per-kind site counts, in kind order (census reporting). */
    const std::map<std::string, uint64_t> &
    siteCensus() const
    {
        return siteCensus_;
    }

    /** Plan-shaped (relative) site indexes that actually fired. */
    const std::vector<uint64_t> &crashesFired() const
    {
        return crashLog_;
    }
    /// @}

    const FaultPlan &plan() const { return plan_; }
    uint64_t seed() const { return plan_.seed; }
    uint64_t callCount() const { return seq_; }

    /** Every fault actually fired, in firing order. */
    const std::vector<FaultEvent> &fired() const { return log_; }
    uint64_t firedCount(FaultOp op) const;
    uint64_t firedTotal() const { return log_.size(); }

    /** Distinct FaultOp kinds that actually fired. */
    uint32_t firedKinds() const;

    /**
     * One-line JSON report: seed, call count, per-op fired counts.
     * Enough to rebuild the plan and replay the run from a log.
     */
    std::string reportJson() const;

  private:
    FaultPlan plan_;
    uint64_t seq_ = 0;
    bool memArmed_ = false;
    bool engArmed_ = false;
    uint32_t engExc_ = 0;
    bool mutateArmed_ = false;
    uint32_t mutateCountdown_ = 0;
    FaultEvent mutateEvent_;
    std::vector<FaultEvent> log_;
    uint64_t firedPerOp_[faultOpCount] = {};

    std::vector<uint64_t> crashPlan_;
    size_t crashNext_ = 0;
    bool crashed_ = false;
    uint64_t siteSeq_ = 0;   ///< relative to the last firing
    uint64_t siteTotal_ = 0; ///< absolute, since arming
    std::map<std::string, uint64_t> siteCensus_;
    std::vector<uint64_t> crashLog_;
};

} // namespace xpc

#endif // XPC_SIM_FAULT_INJECTOR_HH
