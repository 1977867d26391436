/**
 * @file
 * Transport abstraction: one service implementation, five systems.
 *
 * Services (file system, network stack, crypto, ...) are written
 * against ServerApi/Transport and run unmodified over seL4 endpoint
 * IPC (one-copy or two-copy shared memory), Zircon channels, or XPC
 * relay segments. The transport defines where message bytes live and
 * what moving them costs, which is precisely the variable the paper's
 * evaluation isolates.
 *
 * Client-side protocol:
 *   1. requestArea(core, client, len) - make room for a message;
 *   2. clientWrite(...)               - produce the request bytes;
 *   3. call(...)                      - synchronous invocation;
 *   4. clientRead(...)                - consume the reply bytes
 *      (offsets are message-area-absolute: a reply may legitimately
 *      sit at a protocol-defined offset, which is how XPC's in-place
 *      zero-copy replies stay zero-copy).
 *
 * Server-side handover: callService() forwards a sub-range of the
 * current request to another service. On XPC this is seg-mask plus
 * xcall (no copies, paper 4.4); on the baselines it is real copying
 * between per-hop buffers.
 */

#ifndef XPC_CORE_TRANSPORT_HH
#define XPC_CORE_TRANSPORT_HH

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/envelope.hh"
#include "kernel/kernel.hh"

namespace xpc::core {

using ServiceId = uint64_t;

/**
 * Why a call failed, forwarded from the kernel / XPC runtime so that
 * clients and supervisors can react (retry, restart, give up) instead
 * of the simulator aborting.
 */
using TransportStatus = kernel::CallStatus;

/** The server's transport-independent view of one invocation. */
class ServerApi
{
  public:
    virtual ~ServerApi() = default;

    /**
     * Mark the whole invocation failed (a message access faulted, a
     * nested call this handler depended on went wrong, ...). The
     * transport aborts the reply and surfaces @p status to the caller.
     */
    void fail(TransportStatus status) { failStatus = status; }
    TransportStatus failStatus = TransportStatus::Ok;

    virtual uint64_t opcode() const = 0;
    virtual uint64_t requestLen() const = 0;

    /** Charged read of request bytes. */
    virtual void readRequest(uint64_t off, void *dst, uint64_t len) = 0;
    /** Charged in-place update of the request message (used to stage
     *  data a later callService will forward). */
    virtual void writeRequest(uint64_t off, const void *src,
                              uint64_t len) = 0;
    /** Charged write of reply bytes (message-area-absolute offset). */
    virtual void writeReply(uint64_t off, const void *src,
                            uint64_t len) = 0;
    virtual void setReplyLen(uint64_t len) = 0;

    /**
     * Forward [@p off, @p off + @p len) of this request to @p svc.
     * On return the same range holds the nested reply.
     * @param req_len meaningful request bytes within the window (the
     *        rest is reply headroom); baselines copy only these
     *        forward. 0 means the whole window.
     * @return the nested reply length.
     */
    virtual uint64_t callService(ServiceId svc, uint64_t opcode,
                                 uint64_t off, uint64_t len,
                                 uint64_t req_len = 0) = 0;

    /**
     * Declare the reply to be the request sub-range
     * [@p off, @p off + @p len) - free on XPC, a copy elsewhere.
     */
    virtual void replyFromRequest(uint64_t off, uint64_t len) = 0;

    /**
     * Call @p svc with a request unrelated to the current message
     * (e.g. the file system flushing a cache block to the disk
     * server). The request bytes come from host-visible state that
     * was already charged when produced; the transport charges the
     * produce into its own scratch message area (a swapseg'd relay
     * segment on XPC, a private buffer elsewhere - prepare it at
     * wiring time with Transport::prepareScratch).
     * @return the nested reply length; reply bytes land in @p reply.
     */
    virtual uint64_t callServiceScratch(ServiceId svc, uint64_t opcode,
                                        const void *req,
                                        uint64_t req_len, void *reply,
                                        uint64_t reply_cap) = 0;

    virtual hw::Core &core() = 0;

    /**
     * The calling thread, when the substrate can identify it (the
     * kernel's IPC partner on seL4/Zircon; the xcall-cap-reg mapped
     * back through the kernel's thread table on XPC). May be null
     * for anonymous callers.
     */
    virtual kernel::Thread *callerThread() = 0;

    /// @name Reply read-back (envelope sealing support).
    ///
    /// The transport's reply seal must checksum exactly the bytes the
    /// client will receive, gaps included, so it reads the reply back
    /// from wherever the substrate keeps it. Defaults are inert so
    /// ServerApi implementations outside the three transports (test
    /// doubles, binder surfaces) stay source-compatible; the envelope
    /// is only meaningful where these are overridden.
    /// @{
    virtual uint64_t replyLen() const { return 0; }
    virtual void
    readReply(uint64_t off, void *dst, uint64_t len)
    {
        (void)off;
        if (len > 0)
            std::memset(dst, 0, len);
    }
    /// @}
};

/** Handler signature shared by all services. */
using ServiceHandler = std::function<void(ServerApi &)>;

/** Static description of a service at registration time. */
struct ServiceDesc
{
    std::string name;
    kernel::Thread *handlerThread = nullptr;
    uint32_t maxContexts = 4;
    uint64_t maxMsgBytes = 256 * 1024;
    /** Bytes this service may append to a forwarded message
     *  (S_self of the paper's size negotiation, 4.4). */
    uint64_t selfAppendBytes = 0;
    /** Services this one forwards to (for size negotiation). */
    std::vector<ServiceId> callees;
    /**
     * Reachable from every tenant even under tenancy enforcement
     * (the name server is the canonical example: it IS the tenant
     * boundary, so each tenant must be able to call it).
     */
    bool sharedAcrossTenants = false;
};

/** Outcome of a client call, as the kernel or runtime reported it. */
using CallResult = kernel::CallOutcome;

/** One IPC substrate (seL4 / Zircon / XPC). */
class Transport
{
  public:
    Transport()
    {
        stats.addCounter("calls", &callsIssued);
        stats.addCounter("failed_calls", &callsFailed);
        stats.addCounter("cross_tenant_denied", &crossTenantDenied);
        stats.addCounter("cross_tenant_grants", &crossTenantGrants);
        stats.addCounter("cross_tenant_calls", &crossTenantCalls);
        stats.addCounter("integrity_violations", &integrityViolations);
    }

    virtual ~Transport() = default;

    virtual const char *name() const = 0;

    /** The kernel this transport's processes live in. */
    virtual kernel::Kernel &kernelRef() = 0;

    /** Register a service; the handler runs per invocation. */
    virtual ServiceId registerService(const ServiceDesc &desc,
                                      ServiceHandler handler) = 0;

    /** Authorize @p client (possibly a server thread) to call @p svc. */
    virtual void connect(kernel::Thread &client, ServiceId svc) = 0;

    /**
     * Ensure the client has a message area of at least @p len bytes
     * and return its VA (diagnostic; access goes via clientWrite /
     * clientRead so it is charged and mode-correct).
     */
    virtual VAddr requestArea(hw::Core &core, kernel::Thread &client,
                              uint64_t len) = 0;

    /**
     * Charged produce into the message area.
     * @return false when the copy faulted (fault injection): the
     *         message bytes are NOT staged and the caller must not
     *         issue the call on top of stale contents.
     */
    virtual bool clientWrite(hw::Core &core, kernel::Thread &client,
                             uint64_t off, const void *src,
                             uint64_t len) = 0;

    /**
     * Charged consume of the reply.
     * @return false when the copy faulted (fault injection); @p dst
     *         is zero-filled in that case.
     */
    virtual bool clientRead(hw::Core &core, kernel::Thread &client,
                            uint64_t off, void *dst, uint64_t len) = 0;

    /** Synchronous call; the request is the first @p req_len bytes of
     *  the message area. */
    virtual CallResult call(hw::Core &core, kernel::Thread &client,
                            ServiceId svc, uint64_t opcode,
                            uint64_t req_len, uint64_t reply_cap) = 0;

    /**
     * Give a *server* thread the scratch message area it needs to
     * issue callServiceScratch from inside its handlers. Call once at
     * wiring time, before any client traffic.
     */
    virtual void
    prepareScratch(hw::Core &core, kernel::Thread &server, uint64_t len)
    {
        requestArea(core, server, len);
    }

    /** scratchCall's failure sentinel (never a valid reply length). */
    static constexpr uint64_t scratchFailed = ~uint64_t(0);

    /**
     * Transport-level scratch call (the engine behind
     * ServerApi::callServiceScratch, also usable at wiring time with
     * @p in_handler false). The default implementation produces into
     * the caller's private message area and calls; XPC overrides it
     * with a swapseg'd relay segment. Returns scratchFailed when the
     * nested call did not complete.
     */
    virtual uint64_t scratchCall(hw::Core &core, kernel::Thread &caller,
                                 bool in_handler, ServiceId svc,
                                 uint64_t opcode, const void *req,
                                 uint64_t req_len, void *reply,
                                 uint64_t reply_cap);

    /**
     * Message size negotiation (paper 4.4): total append headroom a
     * client should reserve when calling @p svc, i.e. S_all(svc).
     */
    uint64_t negotiatedAppend(ServiceId svc) const;

    /** Look up a registered service by name (simple name server). */
    ServiceId lookup(const std::string &name) const;

    /** Like lookup(), but only matches services owned by @p tenant. */
    ServiceId lookup(const std::string &name,
                     kernel::TenantId tenant) const;

    const ServiceDesc &describe(ServiceId svc) const;

    /**
     * Tenant isolation (ROADMAP item 4, container-style namespaces).
     * Off by default: tenant 0 everywhere, zero behavioral change on
     * the paper-reproduction path. When on, connect() refuses to
     * grant - and call() refuses to invoke - a service owned by a
     * different tenant (unless it is sharedAcrossTenants). The call
     * side matters on Zircon, where connect() is a no-op because
     * possession of the channel id is the capability.
     */
    bool enforceTenancy = false;

    /** The tenant that owns @p svc (its handler thread's tenant at
     *  registration time). */
    kernel::TenantId tenantOf(ServiceId svc) const;

    /**
     * End-to-end data integrity (DESIGN.md section 4k). Off by
     * default: zero behavioral (and cycle) change on the paper path.
     * When on, every call() seals its request with an Envelope
     * trailer, the server verifies it over its one copy-then-
     * validated fetch of the request before the handler runs, the
     * handler's reply is sealed the same way, and call() verifies
     * the reply (crc, length, echoed seq) before reporting success.
     * Mismatches surface as CallStatus::IntegrityViolation.
     */
    bool envelopeEnabled = false;

    /** Envelope checks that failed, either receive path. */
    Counter integrityViolations;

    /** Cross-tenant connects/calls refused by enforcement. */
    Counter crossTenantDenied;
    /**
     * Capability grants that actually crossed a tenant boundary
     * (enforcement off or a hole in it). The containment suite
     * asserts this stays zero under enforcement.
     */
    Counter crossTenantGrants;
    /** Calls that crossed a tenant boundary (same contract). */
    Counter crossTenantCalls;

    Counter callsIssued;
    Counter callsFailed;

    /** Registry node; attached to the system's group. */
    StatGroup stats{"transport"};

  protected:
    /** Count @p res into the transport stats and pass it through;
     *  concrete call() implementations return through this. */
    CallResult
    countCall(CallResult res)
    {
        callsIssued.inc();
        if (!res.ok)
            callsFailed.inc();
        return res;
    }

    /**
     * The call skeleton every substrate shares, after its tenancy
     * gate: seal the staged request (envelope on), run
     * @p invoke(wire_len) - the substrate's own kernel or engine
     * call, returning a CallResult - then verify the sealed reply and
     * count the call. A sealing copy that faults fails the call with
     * CopyFault without invoking.
     */
    template <typename Invoke>
    CallResult
    sealedCall(hw::Core &core, kernel::Thread &client, uint64_t req_len,
               Invoke &&invoke)
    {
        uint64_t wire_len = req_len;
        uint64_t seq = 0;
        if (envelopeEnabled) {
            wire_len = sealRequest(core, client, req_len, &seq);
            if (wire_len == sealFailed) {
                CallResult res;
                res.status = TransportStatus::CopyFault;
                return countCall(res);
            }
            sealPending = true;
        }
        CallResult res = invoke(wire_len);
        sealPending = false;
        if (envelopeEnabled)
            res = verifySealedReply(core, client, seq, res);
        return countCall(res);
    }

    ServiceId
    recordDesc(const ServiceDesc &desc)
    {
        descs.push_back(desc);
        svcTenants.push_back(desc.handlerThread
                                 ? desc.handlerThread->tenant
                                 : kernel::defaultTenant);
        return descs.size() - 1;
    }

    /**
     * Gate a capability grant: true when connect() may proceed.
     * Counts refusals and (with enforcement off) grants that crossed
     * a tenant boundary anyway. Concrete connect() implementations
     * return early on false.
     */
    bool gateGrant(const kernel::Thread &client, ServiceId svc);

    /** Same gate for the invocation path; used by concrete call(). */
    bool gateCall(const kernel::Thread &client, ServiceId svc);

    /** A gateCall refusal as a CallResult (through countCall). */
    CallResult deniedCall();

    /// @name Envelope plumbing shared by the three transports.
    /// @{

    /** Extra message-area bytes a sealed call needs (the trailer). */
    uint64_t
    envelopeHeadroom() const
    {
        return envelopeEnabled ? Envelope::wireBytes : 0;
    }

    /**
     * Charged read of the client's *staged request* bytes (the
     * clientWrite side of the message area - clientRead reads the
     * reply side on the copying substrates). Only the sealing path
     * uses it; the default refuses so substrates that never seal
     * need not implement it.
     */
    virtual bool
    readStagedRequest(hw::Core &core, kernel::Thread &client,
                      uint64_t off, void *dst, uint64_t len)
    {
        (void)core;
        (void)client;
        (void)off;
        (void)dst;
        (void)len;
        return false;
    }

    /** sealRequest's failure sentinel. */
    static constexpr uint64_t sealFailed = ~uint64_t(0);

    /**
     * Seal the staged request: checksum [0, req_len), append the
     * Envelope trailer at req_len, mark the upcoming invocation
     * sealed. @return the wire length (req_len + trailer), or
     * sealFailed when a staging copy faulted.
     */
    uint64_t sealRequest(hw::Core &core, kernel::Thread &client,
                         uint64_t req_len, uint64_t *seq_out);

    /**
     * Client-side receive check of a sealed call's reply: re-read
     * the wire bytes, verify {magic, len, seq, crc}, strip the
     * trailer from res.replyLen. On mismatch the result becomes a
     * typed IntegrityViolation. Call before countCall().
     */
    CallResult verifySealedReply(hw::Core &core, kernel::Thread &client,
                                 uint64_t seq, CallResult res);

    /**
     * Server-side dispatch: every transport's registered handler
     * wrapper funnels through here. Unsealed invocations (envelope
     * off, or a hop that did not come through call() - XPC's
     * zero-copy nested handovers) run the handler directly. Sealed
     * invocations fetch the request exactly once, verify the
     * envelope over that copy, run the handler against the validated
     * snapshot (copy-then-validate: a seg mutated after handoff can
     * never be re-fetched), then seal the reply with the echoed seq.
     */
    void dispatchHandler(ServerApi &api, const ServiceHandler &handler);

    /** One integrity violation: count, trace, fail the invocation. */
    void flagViolation(ServerApi &api);

    /** Set by sealedCall() just before invoking the kernel so the
     *  handler wrapper knows this invocation is sealed; consumed at
     *  wrapper entry, cleared again when the kernel call returns (an
     *  invocation aborted before the handler must not leak the flag
     *  into the next, unsealed hop). */
    bool sealPending = false;

    /** Per-transport seal sequence (request/reply correlation). */
    uint64_t envSeq = 0;
    /// @}

    std::vector<ServiceDesc> descs;
    /** Owner tenant per ServiceId (parallel to descs). */
    std::vector<kernel::TenantId> svcTenants;
};

} // namespace xpc::core

#endif // XPC_CORE_TRANSPORT_HH
