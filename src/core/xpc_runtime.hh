/**
 * @file
 * The user-level XPC library: the paper's Listing 1 programming model.
 *
 * Servers register x-entries with a handler thread and a maximum
 * number of simultaneous invocation contexts; the library provides
 * the per-invocation C-stack trampoline, caller identification,
 * relay-segment allocation, nested (handover) calls with seg-mask,
 * and the xcall/xret execution flow under the migrating-thread model:
 * the handler runs on the *caller's* core, in the server's address
 * space, exactly as on the paper's hardware.
 */

#ifndef XPC_CORE_XPC_RUNTIME_HH
#define XPC_CORE_XPC_RUNTIME_HH

#include <functional>
#include <map>

#include "kernel/xpc_manager.hh"
#include "sim/phase.hh"

namespace xpc::core {

class XpcServerCall;
class XpcRuntime;

/** How much register state the user-level trampoline saves. */
enum class TrampolineMode
{
    /** Save/restore all callee-visible registers (mutually
     *  distrusting caller and callee). */
    FullContext,
    /** Caller and callee share a calling convention and save only
     *  the live registers (paper 5.2 "Partial-Cxt"). */
    PartialContext,
};

/** Library-level tunables. */
struct XpcRuntimeOptions
{
    TrampolineMode trampoline = TrampolineMode::FullContext;
    /** Issue an engine-cache prefetch before each xcall. */
    bool prefetchEntries = false;
    /** Callee budget before the kernel's timeout unwinds the call;
     *  0 = infinite (the common real-world setting, paper 6.1). */
    Cycles timeoutCycles{0};
};

/** Outcome of one xpcCall: a call outcome plus the engine's view. */
struct XpcCallOutcome : kernel::CallOutcome
{
    /** The kernel's timeout fired and forced the unwind (6.1). */
    bool timedOut = false;
    engine::XpcException exc = engine::XpcException::None;
};

/** Handler signature: runs under the migrating-thread model. */
using XpcHandler = std::function<void(XpcServerCall &)>;

/**
 * The server's view of one XPC invocation. Message bytes live in the
 * relay segment mapped by the core's seg-reg; all access is charged.
 */
class XpcServerCall
{
  public:
    uint64_t opcode() const { return op; }
    uint64_t requestLen() const { return reqLen; }
    /** Caller's xcall-cap-reg (t0): identifies the caller. */
    PAddr callerCap() const { return caller; }

    /** Charged read from the relay segment. */
    void readMsg(uint64_t off, void *dst, uint64_t len);
    /** Charged write into the relay segment (in-place reply). */
    void writeMsg(uint64_t off, const void *src, uint64_t len);
    void setReplyLen(uint64_t len);
    uint64_t replyLen() const { return repLen; }

    /**
     * Simulate a hung callee: spin for @p cycles and never reach
     * xret. The runtime's watchdog (timeoutCycles) then forces the
     * unwind back to the caller.
     */
    void hang(Cycles cycles);

    /**
     * Handover: pass the sub-range [@p off, @p off + @p len) of this
     * message to another x-entry without copying, via seg-mask
     * (paper 4.4 "Message Shrink"). The nested reply lands in place.
     */
    XpcCallOutcome callNested(uint64_t entry_id, uint64_t opcode,
                              uint64_t off, uint64_t len,
                              uint64_t req_len = 0);

    hw::Core &core() { return coreRef; }
    kernel::Thread &handlerThread() { return handler; }

    /**
     * Mark the whole invocation failed: a message access faulted or
     * a nested call this handler depended on went wrong. The runtime
     * still xrets cleanly but surfaces @p status to the caller.
     */
    void fail(kernel::CallStatus status) { failStatus = status; }
    kernel::CallStatus failStatus = kernel::CallStatus::Ok;

  private:
    friend class XpcRuntime;

    XpcServerCall(XpcRuntime &rt, hw::Core &c, kernel::Thread &h)
        : runtime(rt), coreRef(c), handler(h)
    {}

    XpcRuntime &runtime;
    hw::Core &coreRef;
    kernel::Thread &handler;
    uint64_t op = 0;
    uint64_t reqLen = 0;
    uint64_t repLen = 0;
    PAddr caller = 0;
    bool hung = false;
};

/** A relay segment as seen by the owning user thread. */
struct RelaySegHandle
{
    uint64_t segId = 0;
    VAddr va = 0;
    uint64_t len = 0;
    uint64_t slot = 0; ///< seg-list slot it was installed in
};

/** The user-level XPC runtime, one per simulated system. */
class XpcRuntime
{
  public:
    XpcRuntime(kernel::Kernel &kernel, kernel::XpcManager &manager,
               const XpcRuntimeOptions &options = {});

    kernel::XpcManager &manager() { return xpcManager; }
    engine::XpcEngine &engine() { return xpcManager.engine(); }
    kernel::Kernel &kernel() { return kern; }

    /**
     * Register an x-entry (paper Listing 1: xpc_register_entry).
     * Allocates @p max_contexts C-stacks in the server process.
     * @return the x-entry ID to hand to clients.
     */
    uint64_t registerEntry(kernel::Thread &creator,
                           kernel::Thread &handler_thread,
                           XpcHandler handler, uint32_t max_contexts);

    /**
     * Allocate a relay segment for @p thread and make it the active
     * seg-reg (paper Listing 1: alloc_relay_mem).
     */
    RelaySegHandle allocRelayMem(hw::Core &core, kernel::Thread &thread,
                                 uint64_t len);

    /**
     * Perform an XPC (paper Listing 1: xpc_call). The request is the
     * first @p req_len bytes of the caller's active relay segment;
     * the reply comes back in place.
     */
    XpcCallOutcome call(hw::Core &core, kernel::Thread &client,
                        uint64_t entry_id, uint64_t opcode,
                        uint64_t req_len);

    /**
     * Call an x-entry using whatever relay segment is currently
     * active on @p core. Handlers use this after swapping their own
     * scratch segment in; no thread bookkeeping is touched. Passing
     * the calling thread in @p caller puts the call's trace spans on
     * that thread's lane (otherwise the installed thread's, falling
     * back to the core lane).
     */
    XpcCallOutcome callCurrent(hw::Core &core, uint64_t entry_id,
                               uint64_t opcode, uint64_t req_len,
                               kernel::Thread *caller = nullptr);

    /// @name Charged relay-segment access for the owning client.
    /// Returns false when an injected fault corrupted the transfer
    /// (reads then see zeros); real translation faults still panic.
    /// @{
    bool segWrite(hw::Core &core, uint64_t off, const void *src,
                  uint64_t len);
    bool segRead(hw::Core &core, uint64_t off, void *dst, uint64_t len);
    /// @}

    /** Make @p thread the one whose XPC CSRs live on @p core. */
    void ensureInstalled(hw::Core &core, kernel::Thread &thread);

    Counter calls;
    Counter contextExhausted;
    /** Calls cut short because their deadline expired. */
    Counter deadlineExpired;
    /** Relay segments revoked by deadline-expiry cleanup. */
    Counter deadlineRevocations;
    /** Late server writes that faulted on a revoked segment. */
    Counter lateWritesBlocked;

    /** Registry node; attached to the system's group. */
    StatGroup stats{"runtime"};
    /** Fig. 5 taxonomy: xcall/trampoline/handler/xret plus the
     *  one-way and round-trip aggregates, per successful call. */
    PhaseStats phaseStats{"phases", &stats};

  private:
    struct EntryState
    {
        XpcHandler handler;
        kernel::Thread *handlerThread = nullptr;
        uint32_t maxContexts = 1;
        uint32_t busy = 0;
        VAddr cstacks = 0; ///< base of the context stacks
    };

    kernel::Kernel &kern;
    kernel::XpcManager &xpcManager;
    XpcRuntimeOptions opts;
    std::map<uint64_t, EntryState> entryStates;

    /** How a charged relay-segment access ended. */
    enum class SegAccess
    {
        Ok,
        /** The segment was revoked: its seg-reg is scrubbed. */
        Revoked,
        /** An injected fault corrupted the transfer. */
        Faulted,
    };

    /**
     * The one charged access to the relay segment on @p core's
     * seg-reg: @p len bytes at @p off, translated in @p thread's
     * process (null: the segment alone), read into @p buf or, when
     * Byte is const, written from it. An access outside the segment
     * or a real translation fault panics.
     */
    template <typename Byte>
    SegAccess segAccess(hw::Core &core, kernel::Thread *thread,
                        uint64_t off, Byte *buf, uint64_t len);

    /** Charge one direction of the C-stack trampoline.
     *  @return its cycles. */
    Cycles trampoline(hw::Core &core);

    /**
     * One xcall under the kernel's call bracket. Past its deadline
     * (Kernel::callDeadline) the call performs the paper's timeout
     * cleanup - link-stack unwind (4.2/6.1) plus relay-seg revocation
     * (4.4) - so a stalled server can never write the reclaimed
     * segment.
     */
    XpcCallOutcome doCall(hw::Core &core, uint64_t entry_id,
                          uint64_t opcode, uint64_t req_len,
                          uint32_t caller_lane,
                          kernel::TenantId caller_tenant =
                              kernel::defaultTenant);

    friend class XpcServerCall;
};

} // namespace xpc::core

#endif // XPC_CORE_XPC_RUNTIME_HH
