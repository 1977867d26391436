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
#include "sim/fault_injector.hh"
#include "sim/phase.hh"
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

class Kernel;

/**
 * The one bracket of a cross-process call, shared by the seL4 and
 * Zircon port calls and the XPC runtime: how a deadline or a chaos
 * fault strikes a call is defined here, once. Each path constructs
 * it at entry, which binds the call to its request chain, mints the
 * deadline from the kernel's callDeadline at the top of a chain
 * (nested hops inherit the tightest enclosing one), draws the call's
 * scheduled fault and arms a CopyFault. The path then opens the span
 * where its clock starts and runs the shared steps below where its
 * cost model puts them. Where a message byte lives and what touching
 * it costs stays the path's business: it passes byte accessors in.
 * The bracket spends no cycle of its own.
 *
 * open() starts the "<cat>.<name>" span on the caller's lane and the
 * request's flow arc (top-level call), or steps it (nested hop). The
 * destructor runs on every exit path, abort unwinds included: for an
 * opened top-level call it stamps the terminal outcome (critpath's
 * top view groups requests by it), the caller's tenant and the
 * criticality tier - the last two only when not the default, so
 * single-tenant, untiered traces carry neither - then closes the
 * flow arc and the span.
 */
class CallBracket
{
  public:
    /**
     * @param out the call's outcome: fail(), succeed() and
     *        runHandler() fill it; the span reports its final status.
     * @param expired counts the calls whose deadline passed.
     */
    CallBracket(Kernel &kernel, hw::Core &core, CallOutcome &out,
                Counter &expired);
    ~CallBracket();

    CallBracket(const CallBracket &) = delete;
    CallBracket &operator=(const CallBracket &) = delete;

    /** Start the call's clock and open its span on @p lane. */
    void open(const char *cat, const char *name, uint32_t lane,
              TenantId tenant);

    /** When open() started the clock. */
    Cycles start() const { return t0; }
    /** The call's absolute deadline cycle (0 = none). */
    uint64_t deadline() const { return dl; }
    /** The fault this call drew (nullptr = none): the path's own
     *  fault kinds switch on it. */
    const FaultEvent *fault() const { return ev; }
    FaultInjector *injector() const { return inj; }

    /// @name Deadline checks; each expiry is counted.
    /// @{
    /** Before the call: an upstream hop already spent the budget. */
    bool expiredBeforeCall();
    /** After the handler, at @p now; the expiry is marked with a
     *  "<cat>.deadline_expired" instant on the caller's lane. */
    bool expiredAfterHandler(Cycles now, const char *cat);
    /// @}

    /** End the call failed with @p status; roundTrip is charged from
     *  open() to now. */
    void fail(CallStatus status);
    /** End the call with a @p reply_len byte reply. */
    void succeed(uint64_t reply_len);

    /// @name Data-corruption steps.
    /// The path passes @p xor_byte(at, mask), which XORs @p mask into
    /// byte @p at of the message where the path keeps it, charged as
    /// the path charges it, and returns false when the access faulted.
    /// @{
    /** CorruptPayload, once the request is delivered and before the
     *  handler parses it: even args flip one bit, odd args truncate
     *  @p req_len (the envelope's length check is what catches it). */
    template <typename XorByte>
    void
    corruptPayload(uint64_t &req_len, XorByte &&xor_byte)
    {
        if (!drew(FaultOp::CorruptPayload) || req_len == 0)
            return;
        uint64_t pick = ev->arg >> 1;
        if (ev->arg & 1) {
            uint64_t cut = 1 + pick % 7;
            req_len = req_len > cut ? req_len - cut : 0;
        } else {
            xor_byte(pick % req_len, uint8_t(1u << (pick % 8)));
        }
        inj->recordFired(*ev);
    }

    /** GarbageReply: garble the staged reply after the handler sealed
     *  it, before it travels back to the caller. */
    template <typename XorByte>
    void
    garbageReply(uint64_t reply_len, XorByte &&xor_byte)
    {
        if (drew(FaultOp::GarbageReply) && reply_len > 0 &&
            xor_byte(ev->arg % reply_len, uint8_t(0xA5)))
            inj->recordFired(*ev);
    }
    /// @}

    /**
     * Run @p handler on @p hcore in the Handler phase, while the
     * server owns the request. MutateAfterHandoff is armed for the
     * run: the hostile rewrite fires after the handler's arg-th
     * request read (recorded there) and is disarmed afterwards. A
     * StallServer busy-loops past the deadline instead of running the
     * handler, and only when a deadline is armed (without a budget to
     * exceed it would wedge the caller forever). A SlowServer runs it
     * at arg times its cost. Fills handlerCycles and emits the
     * handler span on @p server_lane, with the flow arc stepped
     * through it so the hop renders from caller to server.
     */
    template <typename Fn>
    void
    runHandler(hw::Core &hcore, uint32_t server_lane, uint64_t req_len,
               Fn &&handler)
    {
        uint32_t slow = strikeHandler(req_len);
        Cycles h0 = hcore.now();
        {
            req::PhaseScope phase(ctx, uint32_t(Phase::Handler));
            if (stall) {
                // Busy-loop past the deadline; no reply is produced.
                uint64_t now = hcore.now().value();
                hcore.spend(Cycles((dl > now ? dl - now : 0) + 1000));
            } else {
                handler();
                if (slow > 1)
                    hcore.spend((hcore.now() - h0) * (slow - 1));
            }
        }
        endHandler(hcore, h0, server_lane);
    }

    /** A StallServer struck this call's handler. */
    bool stalled() const { return stall; }

  private:
    bool drew(FaultOp op) const { return ev && ev->op == op; }
    /** Arm and fire the handler-time faults; @return the slowdown. */
    uint32_t strikeHandler(uint64_t req_len);
    void endHandler(hw::Core &hcore, Cycles h0, uint32_t server_lane);

    hw::Core &callerCore;
    CallOutcome &out;
    Counter &expiredCalls;
    req::RequestContext &ctx;
    req::RequestScope rscope;
    req::DeadlineScope dscope;
    const uint64_t dl;
    FaultInjector *const inj;
    const FaultEvent *ev = nullptr;
    bool stall = false;

    trace::Tracer &tr;
    const char *cat = nullptr;
    const char *name = nullptr;
    uint32_t lane = 0;
    bool opened = false;
    /** Tracing was on at open(): the span and flow need closing. */
    bool active = false;
    TenantId tenant = defaultTenant;
    req::Criticality tier = req::Criticality::Default;
    Cycles t0;
};


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
    /** Bytes the caller's reply area holds: a reply or a reply write
     *  past it panics. */
    uint64_t replyCapacity() const { return replyCap; }

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
    uint64_t replyCap = 0;
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
    static constexpr Cycles remoteWake{1600};
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
     * Per-call deadline budget of every call path, kernel IPC and
     * XPC alike (0 = off, the default). When set, every outermost
     * call mints an absolute deadline of now + callDeadline (see
     * CallBracket); nested hops inherit the tightest enclosing
     * deadline and the call aborts with CallStatus::DeadlineExpired
     * once the cycle clock passes it, instead of letting a stalled
     * server block the caller.
     */
    Cycles callDeadline{0};

    /** Kernel IPC calls aborted because their deadline expired. */
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
    /** XOR @p mask into the byte at @p va of @p process: a charged
     *  read and write (chaos plumbing). @return false when the read
     *  faulted. */
    bool xorUserByte(hw::Core &core, Process &process, VAddr va,
                     uint8_t mask);

    hw::Machine &mach;
    std::vector<std::unique_ptr<Process>> processes;
    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<Thread *> currentThread;
    Asid nextAsid = 1;
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_KERNEL_HH
