/**
 * @file
 * Request-scoped causal context: the cursor of one simulated machine
 * that says "which cross-process call chain is executing right now,
 * and in which phase". Each hw::Machine owns one, so Systems that
 * live side by side in one process share no request ids, phases,
 * deadlines or tiers.
 *
 * Every top-level call (any transport, either kernel, or the raw XPC
 * runtime) mints a RequestId and binds it for the call's dynamic
 * extent with a RequestScope; nested calls - handover via seg-mask,
 * scratch calls, kernel-mediated hops - inherit the active id, so one
 * client request keeps a single identity across every process it
 * migrates through. The tracer stamps the active (request, phase)
 * pair onto every event it records, and the memory system charges
 * cache/TLB traffic to the same pair, which is what lets the
 * critical-path profiler (sim/critpath.hh) say "request #42 spent 61%
 * of its cycles on relay-seg TLB walks".
 *
 * The context is purely observational: binding or minting never
 * spends simulated cycles, so cycle output is byte-identical whether
 * anyone looks at it or not.
 */

#ifndef XPC_SIM_REQUEST_HH
#define XPC_SIM_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xpc::req {

/** Identity of one top-level cross-process call chain; 0 = none. */
using RequestId = uint64_t;

/** Sentinel phase index: no phase scope is active. */
inline constexpr uint32_t phaseNone = 0xffffffffu;

/**
 * Criticality tier of a call chain, minted beside the RequestId and
 * inherited by every nested hop the same way deadlines are. Admission
 * control sheds low tiers first under overload (criticality-tiered
 * brownout), and circuit-breaker half-open probes run at Critical so
 * a recovery probe is never shed by the very overload it is probing.
 * Ordered: higher value = more important.
 */
enum class Criticality : uint8_t
{
    Sheddable = 0, ///< best-effort; first to go under overload
    Default = 1,   ///< ordinary traffic (untiered callers land here)
    Critical = 2,  ///< must-serve; only shed at the full watermark
};
constexpr size_t criticalityCount = 3;
const char *criticalityName(Criticality c);

/** One machine's request/phase cursor. */
class RequestContext
{
  public:
    /** The request bound to the executing call chain (0 if none). */
    RequestId
    current() const
    {
        return reqs.empty() ? 0 : reqs.back();
    }

    /** Innermost active phase index (phaseNone if none). */
    uint32_t
    currentPhase() const
    {
        return phases.empty() ? phaseNone : phases.back();
    }

    /** Requests minted so far (ids are 1..minted()). */
    uint64_t minted() const { return lastId; }

    /**
     * Absolute-cycle deadline of the executing call chain (0 = no
     * deadline). Deadlines are absolute against the monotonic cycle
     * clock, so "propagating and decrementing the budget across a
     * hop" is automatic: every nested hop sees the same absolute
     * limit, and whatever cycles an upstream server burned have
     * already shrunk the remaining budget. Nested scopes can only
     * tighten the deadline, never extend it.
     */
    uint64_t
    currentDeadline() const
    {
        return deadlines.empty() ? 0 : deadlines.back();
    }

    /**
     * Criticality tier of the executing call chain. Untiered chains
     * run at Default, so every pre-existing caller behaves exactly as
     * before; an outer CriticalityScope is inherited by nested hops
     * (the scope stack, like deadlines, needs no per-hop plumbing).
     */
    Criticality
    currentCriticality() const
    {
        return tiers.empty() ? Criticality::Default : tiers.back();
    }

    void pushPhase(uint32_t phase) { phases.push_back(phase); }

    void
    popPhase()
    {
        if (!phases.empty())
            phases.pop_back();
    }

  private:
    friend class RequestScope;
    friend class DeadlineScope;
    friend class CriticalityScope;

    RequestId mint() { return ++lastId; }

    std::vector<RequestId> reqs;
    std::vector<uint32_t> phases;
    std::vector<uint64_t> deadlines;
    std::vector<Criticality> tiers;
    uint64_t lastId = 0;
};

/**
 * RAII binding of a call to a request. The outermost scope on the
 * stack mints a fresh id; nested scopes (handover calls, kernel hops
 * made from inside a handler) inherit it, keeping the whole chain
 * under one identity.
 */
class RequestScope
{
  public:
    explicit RequestScope(RequestContext &context) : ctx(context)
    {
        top = ctx.reqs.empty();
        id_ = top ? ctx.mint() : ctx.reqs.back();
        ctx.reqs.push_back(id_);
    }

    ~RequestScope() { ctx.reqs.pop_back(); }

    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

    RequestId id() const { return id_; }
    /** True when this scope minted the id (start of the chain). */
    bool topLevel() const { return top; }

  private:
    RequestContext &ctx;
    RequestId id_ = 0;
    bool top = false;
};

/**
 * RAII deadline binding. Pass the absolute cycle by which the work
 * under this scope must finish (0 = "no deadline of my own"). The
 * effective deadline is the minimum of the enclosing one and the one
 * passed in, so an inner hop can tighten the budget but a nested call
 * can never outlive its caller's deadline. Like RequestScope this is
 * purely observational - pushing a deadline spends no cycles; the
 * call paths decide what to do when the clock passes it.
 */
class DeadlineScope
{
  public:
    DeadlineScope(RequestContext &context, uint64_t absolute_deadline)
        : ctx(context)
    {
        uint64_t outer = ctx.currentDeadline();
        uint64_t eff = absolute_deadline;
        if (outer != 0 && (eff == 0 || outer < eff))
            eff = outer;
        ctx.deadlines.push_back(eff);
    }

    ~DeadlineScope() { ctx.deadlines.pop_back(); }

    DeadlineScope(const DeadlineScope &) = delete;
    DeadlineScope &operator=(const DeadlineScope &) = delete;

  private:
    RequestContext &ctx;
};

/**
 * RAII criticality binding. The tier is minted beside the RequestId /
 * DeadlineScope at the top of a call chain and inherited by every
 * nested hop through the context stack, so admission controllers deep
 * in the mesh see the originating caller's tier without any per-hop
 * plumbing. Unlike deadlines the binding is verbatim, not min-
 * tightened: trusted infrastructure deliberately *escalates* (a
 * circuit breaker's half-open probe runs at Critical inside whatever
 * chain triggered it, so the recovery probe is never shed by the very
 * overload it is probing). Purely observational - no cycles spent.
 */
class CriticalityScope
{
  public:
    CriticalityScope(RequestContext &context, Criticality tier)
        : ctx(context)
    {
        ctx.tiers.push_back(tier);
    }

    ~CriticalityScope() { ctx.tiers.pop_back(); }

    CriticalityScope(const CriticalityScope &) = delete;
    CriticalityScope &operator=(const CriticalityScope &) = delete;

  private:
    RequestContext &ctx;
};

/** RAII phase binding; memory traffic inside is charged to it. */
class PhaseScope
{
  public:
    PhaseScope(RequestContext &context, uint32_t phase_index)
        : ctx(context)
    {
        ctx.pushPhase(phase_index);
    }

    ~PhaseScope() { ctx.popPhase(); }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    RequestContext &ctx;
};

/**
 * Trace lane (Chrome tid) of a logical kernel thread. Core lanes use
 * the core id directly (small numbers); thread lanes are offset so
 * the migrating-thread model still renders client and servers as
 * separate, named tracks even though they share core 0.
 */
inline constexpr uint32_t threadLaneBase = 1000;

inline uint32_t
threadLane(uint32_t thread_id)
{
    return threadLaneBase + thread_id;
}

} // namespace xpc::req

#endif // XPC_SIM_REQUEST_HH
