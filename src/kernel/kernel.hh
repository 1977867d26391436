/**
 * @file
 * Kernel base: processes, threads, traps, context switches, timed
 * user-memory access, and the port interface every kernel IPC
 * personality implements. Sel4Kernel and ZirconKernel specialize the
 * IPC path on top of this.
 */

#ifndef XPC_KERNEL_KERNEL_HH
#define XPC_KERNEL_KERNEL_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hh"
#include "kernel/address_space.hh"
#include "kernel/thread.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

namespace xpc::kernel {

/**
 * Why a cross-process call did (or did not) complete. Kernels fill
 * this into their call outcomes; the transports forward it to
 * clients as a TransportStatus so a faulting call is an error the
 * caller can handle instead of a simulator abort.
 */
enum class CallStatus
{
    Ok,
    /** Caller lacks the capability for the target. */
    NoCapability,
    /** A request or reply copy faulted mid-transfer. */
    CopyFault,
    /** The callee overran its budget; the kernel unwound the call. */
    Timeout,
    /** No idle invocation context at the callee. */
    Exhausted,
    /** The callee's process died while the call was in flight. */
    ServiceDead,
    /** The relay segment was revoked while the callee held it. */
    SegRevoked,
    /** The linkage record under the call was corrupt. */
    LinkageCorrupt,
    /** The transfer instruction itself faulted (engine exception). */
    EngineFault,
    /** A nested (handover) call the handler issued failed. */
    NestedFailure,
    /** The server shed the request at admission (load shedding). */
    Overloaded,
    /** The request's deadline expired before a reply was produced. */
    DeadlineExpired,
    /** The client-side circuit breaker is open; call not attempted. */
    BreakerOpen,
    /** The per-(tenant, service) retry budget is spent; the retry
     *  failed fast instead of amplifying the overload. */
    RetryBudgetExhausted,
    /** An end-to-end envelope check failed (corrupt/truncated/
     *  malformed message bytes), or a hardened parser rejected a
     *  request whose framing did not survive validation. */
    IntegrityViolation,
};

const char *callStatusName(CallStatus status);

/** Outcome of one synchronous cross-process call. */
struct CallOutcome
{
    bool ok = false;
    CallStatus status = CallStatus::Ok;
    uint64_t replyLen = 0;
    /** Cycles from invocation until the server saw the request. */
    Cycles oneWay;
    /** Full round-trip cycles on the client core. */
    Cycles roundTrip;
    /** Cycles inside the server handler (roundTrip minus these is
     *  the pure IPC overhead the paper's Figure 1 isolates). */
    Cycles handlerCycles;
};

/**
 * RAII bracket of one call on the caller's lane, shared by the seL4,
 * Zircon and XPC call paths. The constructor opens the "<cat>.<name>"
 * span and starts the request's flow arc (top-level call) or steps it
 * (nested hop). The destructor runs on every exit path, abort unwinds
 * included: for the top-level call it stamps the terminal outcome
 * (critpath.py --top groups requests by it), the caller's tenant and
 * the criticality tier - the last two only when not the default, so
 * single-tenant, untiered traces carry neither - then closes the flow
 * arc and the span.
 */
class CallSpan
{
  public:
    /** @param status read at destruction: the call's final status. */
    CallSpan(const char *cat, const char *name, hw::Core &core,
             uint32_t lane, const req::RequestScope &rscope,
             TenantId tenant, const CallStatus &status);
    ~CallSpan();

    CallSpan(const CallSpan &) = delete;
    CallSpan &operator=(const CallSpan &) = delete;

    /** The handler span [@p h0, @p end) on @p server_lane, with the
     *  flow arc stepped through it so the hop renders from caller to
     *  server. */
    void handler(Cycles h0, Cycles end, uint32_t server_lane) const;

  private:
    trace::Tracer &tr;
    const char *cat;
    const char *name;
    hw::Core &core;
    uint32_t lane;
    uint64_t flowId;
    bool top;
    bool active;
    TenantId tenant;
    req::Criticality tier;
    const CallStatus &status;
};

class Kernel;

/**
 * The server's view of one in-progress kernel IPC call, passed to the
 * port handler. Every request/reply access is charged to the
 * executing core; each personality decides where the bytes live by
 * implementing the four accessors.
 */
class ServerCall
{
  public:
    virtual ~ServerCall() = default;
    ServerCall(const ServerCall &) = delete;
    ServerCall &operator=(const ServerCall &) = delete;

    uint64_t opcode() const { return op; }
    uint64_t requestLen() const { return reqLen; }

    /** Charged read of request bytes. */
    virtual void readRequest(uint64_t off, void *dst, uint64_t len) = 0;
    /** Charged in-place update of the request (handover plumbing). */
    virtual void writeRequest(uint64_t off, const void *src,
                              uint64_t len) = 0;
    /** Charged write of reply bytes. */
    virtual void writeReply(uint64_t off, const void *src,
                            uint64_t len) = 0;
    /** Charged read-back of staged reply bytes (envelope sealing). */
    virtual void readReply(uint64_t off, void *dst, uint64_t len) = 0;

    void setReplyLen(uint64_t len);
    /** Reply bytes staged so far (envelope sealing reads them back). */
    uint64_t replyBytes() const { return replyLen; }

    hw::Core &core() { return coreRef; }
    Thread &serverThread() { return server; }
    /** The calling thread (the kernel knows its IPC partner). */
    Thread *callerThread() { return client; }

    /**
     * Mark the whole invocation failed (a nested call the handler
     * depended on went wrong, or a message access faulted). The
     * kernel aborts the reply and surfaces @p status to the caller.
     */
    void fail(CallStatus status) { failStatus = status; }
    CallStatus failStatus = CallStatus::Ok;

  protected:
    ServerCall(Kernel &k, hw::Core &c, Thread &s)
        : kern(k), coreRef(c), server(s)
    {}

    /** Charged read of server memory at @p va. A fault zero-fills
     *  @p dst (deterministic garbage for the handler) and fails the
     *  invocation, so the kernel aborts the reply. */
    bool readServer(VAddr va, void *dst, uint64_t len);
    /** Charged write of server memory at @p va; a fault fails the
     *  invocation. */
    void writeServer(VAddr va, const void *src, uint64_t len);
    /** readServer() of request bytes, then MutateAfterHandoff: the
     *  hostile peer rewrites the bytes just fetched at @p va, so a
     *  second fetch of the same field disagrees with the first (the
     *  TOCTOU double-fetch hazard). */
    void fetchRequest(VAddr va, void *dst, uint64_t len);

    Kernel &kern;
    hw::Core &coreRef;
    Thread &server;
    Thread *client = nullptr;
    uint64_t op = 0;
    uint64_t reqLen = 0;
    /** Writable extent of the request representation (a handler may
     *  build forwarded messages beyond reqLen, up to here). */
    uint64_t reqCapacity = 0;
    uint64_t replyLen = 0;
    uint64_t replyCapacity = 0;
};

/** A process: one address space plus one or more threads. */
class Process
{
  public:
    Process(ProcessId id, std::string name, hw::Machine &machine);

    ProcessId id() const { return procId; }
    const std::string &name() const { return procName; }
    AddressSpace &space() { return addressSpace; }

    /** Allocate zeroed user RW memory; convenience over allocMap. */
    VAddr alloc(uint64_t len);

    /** Threads belonging to this process (non-owning). */
    std::vector<Thread *> threads;

    bool dead = false;

  private:
    ProcessId procId;
    std::string procName;
    AddressSpace addressSpace;
};

/** Software cost constants shared by both kernel personalities. */
struct KernelCosts
{
    /** Run-queue manipulation + pick-next on a scheduling event. */
    Cycles schedule{2600};
    /** Blocking a thread and waking another on a remote core (on top
     *  of the IPI itself). */
    Cycles remoteWake{1600};
};

/**
 * The kernel base. Owns every process and thread and the per-core
 * notion of "current thread"; charges privilege transitions and
 * context switches using the machine's cost model.
 */
class Kernel
{
  public:
    explicit Kernel(hw::Machine &machine);
    virtual ~Kernel() = default;

    hw::Machine &machine() { return mach; }
    KernelCosts costs;

    /**
     * Per-call deadline budget for top-level kernel IPC (0 = off,
     * the default). When set, every outermost call mints an absolute
     * deadline of now + callDeadline; nested hops inherit the
     * tightest enclosing deadline and the kernel aborts the call
     * with CallStatus::DeadlineExpired once the cycle clock passes
     * it, instead of letting a stalled server block the caller.
     */
    Cycles callDeadline{0};

    /** Calls aborted because their deadline expired. */
    Counter deadlineExpired;

    /// @name Port interface.
    ///
    /// The one call path the copying transport runs over. A port is
    /// the personality's IPC object (an seL4 endpoint, a Zircon
    /// channel); where the message bytes travel and what moving them
    /// costs stays the personality's business.
    /// @{
    using PortHandler = std::function<void(ServerCall &)>;

    /** Create a port served by @p server running @p handler. */
    virtual uint64_t createPort(Thread &server, PortHandler handler) = 0;

    /** Give @p client the right to call @p port. */
    virtual void grantPort(Thread &client, uint64_t port) = 0;

    /**
     * Synchronous call: request bytes at @p req_va (client VA), reply
     * delivered to @p reply_va (client VA, capacity @p reply_cap).
     */
    virtual CallOutcome callPort(hw::Core &core, Thread &client,
                                 uint64_t port, uint64_t opcode,
                                 VAddr req_va, uint64_t req_len,
                                 VAddr reply_va, uint64_t reply_cap) = 0;
    /// @}

    Process &createProcess(const std::string &name);
    Thread &createThread(Process &process, CoreId home_core);

    Thread *current(CoreId core) const { return currentThread[core]; }
    void setCurrent(CoreId core, Thread *t) { currentThread[core] = t; }

    /// @name Trap path cost charging.
    /// @{
    /** user -> kernel transition. */
    void trapEnter(hw::Core &core);
    /** kernel -> user transition. */
    void trapExit(hw::Core &core);
    /** Save or restore @p nregs general-purpose registers. */
    void saveRestoreRegs(hw::Core &core, uint32_t nregs);
    /// @}

    /**
     * Full kernel context switch on @p core to @p next: registers,
     * scheduler bookkeeping, address-space switch (flushing an
     * untagged TLB), XPC CSR swap.
     */
    void contextSwitchTo(hw::Core &core, Thread &next);

    /// @name Timed user-memory access on behalf of a process.
    /// @{
    mem::TransContext userCtx(Process &process) const;
    mem::AccessResult userRead(hw::Core &core, Process &process,
                               VAddr va, void *dst, uint64_t len);
    mem::AccessResult userWrite(hw::Core &core, Process &process,
                                VAddr va, const void *src, uint64_t len);
    /// @}

    Counter traps;
    Counter contextSwitches;

    /** Registry node; subclasses add their own stats under it. */
    StatGroup stats{"kernel"};

  protected:
    hw::Machine &mach;
    std::vector<std::unique_ptr<Process>> processes;
    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<Thread *> currentThread;
    Asid nextAsid = 1;
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_KERNEL_HH
