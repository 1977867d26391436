#include "xpc_runtime.hh"

#include <cstring>
#include <type_traits>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace xpc::core {

namespace {

/// Trampoline save+restore cost per direction, calibrated to the
/// paper's Figure 5: all callee-visible registers, or only the live
/// ones under a shared calling convention (5.2 "Partial-Cxt").
constexpr Cycles fullContextTrampoline{76};
constexpr Cycles partialContextTrampoline{15};

} // namespace

XpcRuntime::XpcRuntime(kernel::Kernel &kernel,
                       kernel::XpcManager &manager,
                       const XpcRuntimeOptions &options)
    : kern(kernel), xpcManager(manager), opts(options)
{
    stats.addCounter("calls", &calls);
    stats.addCounter("context_exhausted", &contextExhausted);
    stats.addCounter("deadline_expired", &deadlineExpired);
    stats.addCounter("deadline_revocations", &deadlineRevocations);
    stats.addCounter("late_writes_blocked", &lateWritesBlocked);
}

uint64_t
XpcRuntime::registerEntry(kernel::Thread &creator,
                          kernel::Thread &handler_thread,
                          XpcHandler handler, uint32_t max_contexts)
{
    panic_if(max_contexts == 0, "an x-entry needs at least one context");
    if (handler_thread.linkStack == 0)
        xpcManager.initThread(handler_thread);
    if (creator.linkStack == 0)
        xpcManager.initThread(creator);

    uint64_t id = xpcManager.registerEntry(creator, handler_thread,
                                           /*entry_addr=*/0x1000,
                                           max_contexts);
    EntryState state;
    state.handler = std::move(handler);
    state.handlerThread = &handler_thread;
    state.maxContexts = max_contexts;
    // Per-invocation C-stacks, allocated up front (paper 4.2).
    state.cstacks =
        handler_thread.process()->alloc(uint64_t(max_contexts) * 8192);
    entryStates[id] = std::move(state);
    return id;
}

void
XpcRuntime::ensureInstalled(hw::Core &core, kernel::Thread &thread)
{
    kernel::Thread *cur = kern.current(core.id());
    if (cur == &thread)
        return;
    if (cur)
        xpcManager.saveThread(core, *cur);
    xpcManager.installThread(core, thread);
}

RelaySegHandle
XpcRuntime::allocRelayMem(hw::Core &core, kernel::Thread &thread,
                          uint64_t len)
{
    if (thread.linkStack == 0)
        xpcManager.initThread(thread);
    ensureInstalled(core, thread);

    // Find a free seg-list slot for this process.
    static constexpr uint64_t scan_limit = engine::segListCapacity;
    PAddr list = thread.process()->space().segList();
    uint64_t slot = scan_limit;
    for (uint64_t i = 0; i < scan_limit; i++) {
        auto e = engine::XpcEngine::readSegListEntry(
            kern.machine().phys(), list, i);
        if (!e.valid) {
            slot = i;
            break;
        }
    }
    fatal_if(slot == scan_limit, "seg-list full");

    kernel::RelaySeg seg = xpcManager.allocRelaySeg(
        &core, *thread.process(), len, slot);

    // Make it the active segment.
    auto exc = engine().swapseg(core, slot);
    panic_if(exc != engine::XpcException::None,
             "swapseg failed installing a fresh relay segment");
    core.tracer().instantNow("runtime", "alloc_relay_mem", core.id());
    return RelaySegHandle{seg.segId, seg.va, seg.len, slot};
}

template <typename Byte>
XpcRuntime::SegAccess
XpcRuntime::segAccess(hw::Core &core, kernel::Thread *thread, uint64_t off,
                      Byte *buf, uint64_t len)
{
    mem::SegWindow window = engine::XpcEngine::effectiveSeg(core.csrs);
    // A revoked segment (deadline-expiry cleanup, injected revocation)
    // leaves a scrubbed seg-reg: the access faults instead of reaching
    // reclaimed frames (paper 4.4).
    if (!window.valid)
        return SegAccess::Revoked;
    panic_if(!window.covers(window.vaBase + off, len),
             "access outside the active relay segment");
    mem::TransContext ctx;
    ctx.seg = &window;
    if (thread) {
        ctx.pt = &thread->process()->space().pageTable();
        ctx.asid = thread->process()->space().asid();
    }
    mem::MemSystem &ms = kern.machine().mem();
    mem::AccessResult res;
    if constexpr (std::is_const_v<Byte>)
        res = ms.write(core.id(), ctx, window.vaBase + off, buf, len);
    else
        res = ms.read(core.id(), ctx, window.vaBase + off, buf, len);
    core.spend(res.cycles);
    if (res.ok)
        return SegAccess::Ok;
    panic_if(res.fault != mem::FaultKind::Injected,
             "relay-segment access faulted");
    return SegAccess::Faulted;
}

bool
XpcRuntime::segWrite(hw::Core &core, uint64_t off, const void *src,
                     uint64_t len)
{
    SegAccess r = segAccess(core, kern.current(core.id()), off, src, len);
    if (r == SegAccess::Revoked)
        lateWritesBlocked.inc();
    return r == SegAccess::Ok;
}

bool
XpcRuntime::segRead(hw::Core &core, uint64_t off, void *dst,
                    uint64_t len)
{
    if (segAccess(core, kern.current(core.id()), off, dst, len) ==
        SegAccess::Ok)
        return true;
    // A load that faults leaves the caller zeros.
    std::memset(dst, 0, len);
    return false;
}

void
XpcServerCall::readMsg(uint64_t off, void *dst, uint64_t len)
{
    auto r = runtime.segAccess(coreRef, &handler, off, dst, len);
    if (r != XpcRuntime::SegAccess::Ok) {
        // The access faulted: the handler sees zeros and the call is
        // poisoned.
        std::memset(dst, 0, len);
        fail(r == XpcRuntime::SegAccess::Revoked
                 ? kernel::CallStatus::SegRevoked
                 : kernel::CallStatus::CopyFault);
        return;
    }
    FaultInjector *inj = runtime.kern.machine().faultInjector();
    if (len > 0 && inj && inj->noteServerRead()) {
        // MutateAfterHandoff: the caller still shares the relay seg
        // (paper 4.4) and rewrites the field the handler just
        // fetched, so a second fetch of the same bytes disagrees
        // with the first. The write is the peer's, not the
        // handler's: uncharged.
        uint64_t n = len < 8 ? len : 8;
        uint8_t tmp[8];
        std::memcpy(tmp, dst, n);
        for (uint64_t i = 0; i < n; i++)
            tmp[i] ^= 0xA5;
        mem::SegWindow window =
            engine::XpcEngine::effectiveSeg(coreRef.csrs);
        mem::TransContext ctx;
        ctx.seg = &window;
        runtime.kern.machine().mem().write(
            coreRef.id(), ctx, window.vaBase + off, tmp, n);
    }
}

void
XpcServerCall::writeMsg(uint64_t off, const void *src, uint64_t len)
{
    auto r = runtime.segAccess(coreRef, &handler, off, src, len);
    if (r == XpcRuntime::SegAccess::Revoked) {
        // Late write through a revoked mapping: faults, never lands.
        runtime.lateWritesBlocked.inc();
        fail(kernel::CallStatus::SegRevoked);
    } else if (r == XpcRuntime::SegAccess::Faulted) {
        fail(kernel::CallStatus::CopyFault);
    } else if (repLen < off + len) {
        repLen = off + len;
    }
}

void
XpcServerCall::setReplyLen(uint64_t len)
{
    repLen = len;
}

void
XpcServerCall::hang(Cycles cycles)
{
    coreRef.spend(cycles);
    hung = true;
}

XpcCallOutcome
XpcServerCall::callNested(uint64_t entry_id, uint64_t opcode,
                          uint64_t off, uint64_t len,
                          uint64_t req_len)
{
    // Shrink the visible window to the sub-message and hand it over.
    auto exc = runtime.engine().setSegMask(coreRef, off, len);
    if (exc != engine::XpcException::None) {
        XpcCallOutcome out;
        out.exc = exc;
        return out;
    }
    XpcCallOutcome out = runtime.doCall(
        coreRef, entry_id, opcode, req_len == 0 ? len : req_len,
        req::threadLane(uint32_t(handler.id())));
    // xret restored our seg-reg and our mask; drop the mask again.
    runtime.engine().setSegMask(coreRef, 0, 0);
    return out;
}

XpcCallOutcome
XpcRuntime::call(hw::Core &core, kernel::Thread &client,
                 uint64_t entry_id, uint64_t opcode, uint64_t req_len)
{
    panic_if(client.linkStack == 0,
             "client thread has no XPC plumbing (initThread first)");
    ensureInstalled(core, client);
    return doCall(core, entry_id, opcode, req_len,
                  req::threadLane(uint32_t(client.id())),
                  client.tenant);
}

XpcCallOutcome
XpcRuntime::callCurrent(hw::Core &core, uint64_t entry_id,
                        uint64_t opcode, uint64_t req_len,
                        kernel::Thread *caller)
{
    if (!caller)
        caller = kern.current(core.id());
    uint32_t lane = caller ? req::threadLane(uint32_t(caller->id()))
                           : core.id();
    return doCall(core, entry_id, opcode, req_len, lane,
                  caller ? caller->tenant : kernel::defaultTenant);
}

Cycles
XpcRuntime::trampoline(hw::Core &core)
{
    PhaseTimer timer(core, Phase::Trampoline, "runtime", core.id());
    core.spend(opts.trampoline == TrampolineMode::FullContext
                   ? fullContextTrampoline
                   : partialContextTrampoline);
    return timer.stop();
}

XpcCallOutcome
XpcRuntime::doCall(hw::Core &core, uint64_t entry_id, uint64_t opcode,
                   uint64_t req_len, uint32_t caller_lane,
                   kernel::TenantId caller_tenant)
{
    using kernel::CallStatus;

    XpcCallOutcome out;
    calls.inc();

    // The shared bracket binds the call to its request chain (every
    // trace event and memory access below is stamped with it), mints
    // or inherits the deadline and draws the call's fault. What
    // follows is XPC's cost model and the faults only XPC has.
    kernel::CallBracket bracket(kern, core, out, deadlineExpired);
    FaultInjector *inj = bracket.injector();
    const FaultEvent *fault = bracket.fault();

    // Kill the process serving this entry, as a crash would.
    auto kill_server = [&]() -> bool {
        auto its = entryStates.find(entry_id);
        if (its == entryStates.end())
            return false;
        kernel::Process *p = its->second.handlerThread->process();
        if (!p || p->dead)
            return false;
        xpcManager.onProcessExit(*p);
        return true;
    };
    // Message bytes live in the relay segment on the core's seg-reg.
    auto xor_seg_byte = [&](uint64_t at, uint8_t mask) {
        uint8_t b = 0;
        if (!segRead(core, at, &b, 1))
            return false;
        b ^= mask;
        segWrite(core, at, &b, 1);
        return true;
    };

    bool killed_pre_xcall = false;
    if (fault && fault->op == FaultOp::EngineException) {
        inj->armEngineException(fault->arg);
        inj->recordFired(*fault);
    } else if (fault && fault->op == FaultOp::KillServer &&
               fault->phase == FaultPhase::PreXcall && kill_server()) {
        killed_pre_xcall = true;
        inj->recordFired(*fault);
    }
    // Break the staged request in the relay seg before the handover.
    bracket.corruptPayload(req_len, xor_seg_byte);

    if (opts.prefetchEntries) {
        // Issued in advance by the application; its latency overlaps
        // preceding work, so it runs before we start counting.
        engine().prefetch(core, entry_id);
    }

    bracket.open("xpc", "call", caller_lane, caller_tenant);
    Cycles start = bracket.start();

    if (bracket.expiredBeforeCall()) {
        // Already out of budget (an upstream hop burned it all):
        // reject before issuing the xcall at all.
        bracket.fail(CallStatus::DeadlineExpired);
        return out;
    }

    // Crash-point enumeration: every XPC phase boundary is a
    // numbered kill-site for the systematic explorer, alongside
    // every durable write in the block device (sim/explorer).
    if (inj && inj->enabled)
        inj->atCrashSite("phase-xcall");

    PhaseTimer xcall(core, Phase::Xcall, "xpc", caller_lane);
    engine::XcallResult xc = engine().xcall(core, entry_id, entry_id);
    Cycles xcall_cycles = xcall.stop();
    if (xc.exc != engine::XpcException::None) {
        out.exc = xc.exc;
        if (killed_pre_xcall ||
            xc.exc == engine::XpcException::InvalidXEntry)
            bracket.fail(CallStatus::ServiceDead);
        else if (xc.exc == engine::XpcException::InvalidXcallCap)
            bracket.fail(CallStatus::NoCapability);
        else
            bracket.fail(CallStatus::EngineFault);
        return out;
    }

    // Trampoline: pick an idle XPC context, switch to its C-stack,
    // save registers per the trampoline mode (paper 4.2).
    auto it = entryStates.find(entry_id);
    panic_if(it == entryStates.end(),
             "x-entry %lu has no registered handler",
             (unsigned long)entry_id);
    EntryState &state = it->second;
    Cycles entry_trampoline = trampoline(core);

    if (state.busy >= state.maxContexts) {
        // No idle context: return an error to the caller (the
        // alternative policy, waiting, is the application's choice).
        contextExhausted.inc();
        auto ret = engine().xret(core);
        panic_if(ret.exc != engine::XpcException::None,
                 "xret failed unwinding a context-exhausted call");
        bracket.fail(CallStatus::Exhausted);
        return out;
    }
    state.busy++;

    out.oneWay = core.now() - start;

    XpcServerCall call_ctx(*this, core, *state.handlerThread);
    call_ctx.op = opcode;
    call_ctx.reqLen = req_len;
    call_ctx.caller = xc.callerCapPtr;

    // XPC's own in-handler faults strike while the callee owns the
    // core.
    bool skip_handler = false;
    bool hang_injected = false;
    bool server_died = false;
    if (fault && fault->phase == FaultPhase::InHandler) {
        switch (fault->op) {
          case FaultOp::KillServer:
            if (kill_server()) {
                skip_handler = true;
                server_died = true;
                inj->recordFired(*fault);
            }
            break;
          case FaultOp::HangServer:
            // Only meaningful under a watchdog; without one the hang
            // would (correctly) be unrecoverable.
            if (opts.timeoutCycles.value() != 0) {
                hang_injected = true;
                inj->recordFired(*fault);
            }
            break;
          case FaultOp::RevokeSeg:
            if (core.csrs.segId != 0 &&
                xpcManager.segById(core.csrs.segId)) {
                xpcManager.revokeRelaySeg(core.csrs.segId);
                skip_handler = true;
                inj->recordFired(*fault);
            }
            break;
          case FaultOp::CorruptLinkage:
            if (xpcManager.corruptTopLinkage(core))
                inj->recordFired(*fault);
            break;
          case FaultOp::StallServer:
            // The bracket stalls the server when a deadline is armed;
            // with only a watchdog the stall degrades to a hang.
            if (bracket.deadline() == 0 &&
                opts.timeoutCycles.value() != 0) {
                hang_injected = true;
                inj->recordFired(*fault);
            }
            break;
          default:
            break;
        }
    }

    if (inj && inj->enabled)
        inj->atCrashSite("phase-handler");

    // The migrating-thread model: the handler runs on the caller's
    // core, but it is *server* work - its span goes on the server
    // thread's lane.
    bracket.runHandler(
        core, req::threadLane(uint32_t(state.handlerThread->id())),
        req_len, [&] {
            if (hang_injected)
                call_ctx.hang(opts.timeoutCycles + Cycles(1000));
            else if (!skip_handler)
                state.handler(call_ctx);
        });

    if (!server_died &&
        bracket.expiredAfterHandler(core.now(), "runtime")) {
        // The deadline expired while the callee owned the core. The
        // caller gives up *now*: paper-faithful cleanup is the 6.1
        // timeout unwind plus 4.4 segment revocation, so a server
        // that is still chewing on the request can never write the
        // reclaimed segment behind the caller's back.
        state.busy--;
        uint64_t held_seg = core.csrs.segId;
        if (held_seg != 0 && xpcManager.segById(held_seg)) {
            // Revoke while the server's seg-reg still names the
            // segment: this scrubs the seg-reg of every core holding
            // it and invalidates the seg-list slots.
            xpcManager.revokeRelaySeg(held_seg);
            deadlineRevocations.inc();
            if (bracket.stalled() || call_ctx.hung) {
                // The stalled server eventually resumes and issues
                // its reply store through the mapping it held. The
                // revocation scrubbed that seg-reg, so the store
                // faults instead of landing in reclaimed frames.
                mem::SegWindow late =
                    engine::XpcEngine::effectiveSeg(core.csrs);
                if (!late.valid)
                    lateWritesBlocked.inc();
            }
        }
        xpcManager.forceUnwind(core, /*even_if_invalid=*/true);
        bracket.fail(CallStatus::DeadlineExpired);
        return out;
    }

    if (call_ctx.hung && opts.timeoutCycles.value() != 0 &&
        out.handlerCycles >= opts.timeoutCycles) {
        // The watchdog fires: the kernel unwinds the call and the
        // caller resumes with a timeout error (paper 6.1).
        state.busy--;
        bool unwound = xpcManager.forceUnwind(core);
        panic_if(!unwound, "timeout with no linkage record");
        out.timedOut = true;
        bracket.fail(CallStatus::Timeout);
        return out;
    }
    panic_if(call_ctx.hung,
             "handler hung but no timeout is configured");

    if (fault && fault->phase == FaultPhase::PreXret) {
        if (fault->op == FaultOp::KillServer && kill_server()) {
            server_died = true;
            inj->recordFired(*fault);
        } else if (fault->op == FaultOp::CorruptLinkage &&
                   xpcManager.corruptTopLinkage(core)) {
            inj->recordFired(*fault);
        }
    }
    // Garbage the in-place reply before control returns.
    bracket.garbageReply(call_ctx.repLen, xor_seg_byte);

    if (server_died) {
        // The callee crashed mid-call; it will never xret, so the
        // kernel unwinds the client (paper 4.2 termination).
        state.busy--;
        xpcManager.forceUnwind(core, /*even_if_invalid=*/true);
        bracket.fail(CallStatus::ServiceDead);
        return out;
    }

    // Return trampoline (restore registers) and xret.
    trampoline(core);
    state.busy--;

    if (inj && inj->enabled)
        inj->atCrashSite("phase-xret");

    PhaseTimer xret(core, Phase::Xret, "xpc", caller_lane);
    engine::XretResult ret = engine().xret(core);
    Cycles xret_cycles = xret.stop();
    if (ret.exc != engine::XpcException::None) {
        // The hardware refused the return: the record under us is
        // corrupt or the seg-reg no longer matches it. The kernel
        // consumes the record, restores what can be trusted, and the
        // caller sees an error instead of a wedged core.
        xpcManager.forceUnwind(core, /*even_if_invalid=*/true);
        out.exc = ret.exc;
        if (ret.exc == engine::XpcException::InvalidLinkage)
            bracket.fail(CallStatus::LinkageCorrupt);
        else if (ret.exc == engine::XpcException::InvalidSegMask)
            bracket.fail(CallStatus::SegRevoked);
        else
            bracket.fail(CallStatus::EngineFault);
        return out;
    }

    if (call_ctx.failStatus != CallStatus::Ok) {
        // The handler ran but its work is invalid (message copy
        // faulted, or a nested call it depended on failed).
        bracket.fail(call_ctx.failStatus);
        return out;
    }

    bracket.succeed(call_ctx.repLen);

    // Fig. 5 attribution, of successful calls only: the trampoline
    // is the entry one, between the xcall and the handler.
    phaseStats.record(Phase::Xcall, xcall_cycles);
    phaseStats.record(Phase::Trampoline, entry_trampoline);
    phaseStats.record(Phase::Handler, out.handlerCycles);
    phaseStats.record(Phase::Xret, xret_cycles);
    phaseStats.record(Phase::OneWay, out.oneWay);
    phaseStats.record(Phase::RoundTrip, out.roundTrip);
    return out;
}

} // namespace xpc::core
