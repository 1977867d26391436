#include "xpc_runtime.hh"

#include <cstring>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace xpc::core {

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
    trace::Tracer::global().instantNow("runtime", "alloc_relay_mem",
                                       core.id());
    return RelaySegHandle{seg.segId, seg.va, seg.len, slot};
}

bool
XpcRuntime::segWrite(hw::Core &core, uint64_t off, const void *src,
                     uint64_t len)
{
    mem::SegWindow window = engine::XpcEngine::effectiveSeg(core.csrs);
    if (!window.valid) {
        // The segment under this thread was revoked (deadline-expiry
        // cleanup, injected revocation): the store faults on the
        // scrubbed seg-reg instead of landing in reclaimed frames.
        lateWritesBlocked.inc();
        return false;
    }
    panic_if(!window.covers(window.vaBase + off, len),
             "segWrite outside the active relay segment");
    mem::TransContext ctx;
    ctx.seg = &window;
    kernel::Thread *cur = kern.current(core.id());
    if (cur) {
        ctx.pt = &cur->process()->space().pageTable();
        ctx.asid = cur->process()->space().asid();
    }
    auto res = kern.machine().mem().write(core.id(), ctx,
                                          window.vaBase + off, src, len);
    core.spend(res.cycles);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "segWrite faulted");
        return false;
    }
    return true;
}

bool
XpcRuntime::segRead(hw::Core &core, uint64_t off, void *dst,
                    uint64_t len)
{
    mem::SegWindow window = engine::XpcEngine::effectiveSeg(core.csrs);
    if (!window.valid) {
        // Revoked segment: loads fault; the caller sees zeros.
        std::memset(dst, 0, len);
        return false;
    }
    panic_if(!window.covers(window.vaBase + off, len),
             "segRead outside the active relay segment");
    mem::TransContext ctx;
    ctx.seg = &window;
    kernel::Thread *cur = kern.current(core.id());
    if (cur) {
        ctx.pt = &cur->process()->space().pageTable();
        ctx.asid = cur->process()->space().asid();
    }
    auto res = kern.machine().mem().read(core.id(), ctx,
                                         window.vaBase + off, dst, len);
    core.spend(res.cycles);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "segRead faulted");
        std::memset(dst, 0, len);
        return false;
    }
    return true;
}

void
XpcServerCall::readMsg(uint64_t off, void *dst, uint64_t len)
{
    mem::SegWindow window =
        engine::XpcEngine::effectiveSeg(coreRef.csrs);
    if (!window.valid) {
        // The segment was revoked out from under this invocation:
        // the access faults (paper 4.4) and the call is poisoned.
        std::memset(dst, 0, len);
        fail(kernel::CallStatus::SegRevoked);
        return;
    }
    panic_if(!window.covers(window.vaBase + off, len),
             "readMsg outside the relay segment");
    mem::TransContext ctx;
    ctx.seg = &window;
    ctx.pt = &handler.process()->space().pageTable();
    ctx.asid = handler.process()->space().asid();
    auto res = runtime.kern.machine().mem().read(
        coreRef.id(), ctx, window.vaBase + off, dst, len);
    coreRef.spend(res.cycles);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "readMsg faulted");
        std::memset(dst, 0, len);
        fail(kernel::CallStatus::CopyFault);
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
        runtime.kern.machine().mem().write(
            coreRef.id(), ctx, window.vaBase + off, tmp, n);
    }
}

void
XpcServerCall::writeMsg(uint64_t off, const void *src, uint64_t len)
{
    mem::SegWindow window =
        engine::XpcEngine::effectiveSeg(coreRef.csrs);
    if (!window.valid) {
        // Late write through a revoked mapping: faults, never lands.
        runtime.lateWritesBlocked.inc();
        fail(kernel::CallStatus::SegRevoked);
        return;
    }
    panic_if(!window.covers(window.vaBase + off, len),
             "writeMsg outside the relay segment");
    mem::TransContext ctx;
    ctx.seg = &window;
    ctx.pt = &handler.process()->space().pageTable();
    ctx.asid = handler.process()->space().asid();
    auto res = runtime.kern.machine().mem().write(
        coreRef.id(), ctx, window.vaBase + off, src, len);
    coreRef.spend(res.cycles);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "writeMsg faulted");
        fail(kernel::CallStatus::CopyFault);
        return;
    }
    if (repLen < off + len)
        repLen = off + len;
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

XpcCallOutcome
XpcRuntime::doCall(hw::Core &core, uint64_t entry_id, uint64_t opcode,
                   uint64_t req_len, uint32_t caller_lane,
                   kernel::TenantId caller_tenant)
{
    using kernel::CallStatus;

    XpcCallOutcome out;
    calls.inc();

    // Bind the call to its request chain: the outermost call mints a
    // fresh id, nested handover calls inherit the active one. Every
    // trace event and memory access below is stamped with it.
    req::RequestScope rscope;

    // Deadline: the top-level call mints an absolute one from the
    // configured budget; nested hops inherit the enclosing deadline
    // (the scope can only tighten, never extend it). 0 = none.
    req::DeadlineScope dscope(
        rscope.topLevel() && opts.deadlineCycles.value() != 0
            ? (core.now() + opts.deadlineCycles).value()
            : 0);
    const uint64_t deadline =
        req::RequestContext::global().currentDeadline();

    // Fault injection: one lookup per call decides what (if anything)
    // goes wrong, and at which Table-1 phase it strikes.
    FaultInjector *inj = kern.machine().faultInjector();
    const FaultEvent *fault = nullptr;
    if (inj && inj->enabled)
        fault = inj->eventAt(inj->beginCall());

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

    bool killed_pre_xcall = false;
    if (fault) {
        switch (fault->op) {
          case FaultOp::EngineException:
            inj->armEngineException(fault->arg);
            inj->recordFired(*fault);
            break;
          case FaultOp::CopyFault:
            // The next message-byte access faults (reads see zeros).
            inj->armMemFault();
            inj->recordFired(*fault);
            break;
          case FaultOp::KillServer:
            if (fault->phase == FaultPhase::PreXcall &&
                kill_server()) {
                killed_pre_xcall = true;
                inj->recordFired(*fault);
            }
            break;
          case FaultOp::CorruptPayload:
            // Break the staged request in the relay seg before the
            // handover. Even args flip one bit; odd args truncate
            // the visible length (the envelope's length check is
            // what catches that one).
            if (req_len > 0) {
                if (fault->arg & 1) {
                    uint64_t cut = 1 + ((fault->arg >> 1) % 7);
                    req_len = req_len > cut ? req_len - cut : 0;
                } else {
                    uint64_t at = (fault->arg >> 1) % req_len;
                    uint8_t b = 0;
                    if (segRead(core, at, &b, 1)) {
                        b ^= uint8_t(1u << ((fault->arg >> 1) % 8));
                        segWrite(core, at, &b, 1);
                    }
                }
                inj->recordFired(*fault);
            }
            break;
          default:
            break; // strikes later, at its phase
        }
    }

    if (opts.prefetchEntries) {
        // Issued in advance by the application; its latency overlaps
        // preceding work, so it runs before we start counting.
        engine().prefetch(core, entry_id);
    }

    auto &tr = trace::Tracer::global();
    Cycles start = core.now();
    kernel::CallSpan span("xpc", "call", core, caller_lane, rscope,
                          caller_tenant, out.status);

    if (deadline != 0 && core.now().value() >= deadline) {
        // Already out of budget (an upstream hop burned it all):
        // reject before issuing the xcall at all.
        deadlineExpired.inc();
        out.status = CallStatus::DeadlineExpired;
        return out;
    }

    // Crash-point enumeration: every XPC phase boundary is a
    // numbered kill-site for the systematic explorer, alongside
    // every durable write in the block device (sim/explorer).
    if (inj && inj->enabled)
        inj->atCrashSite("phase-xcall");

    engine::XcallResult xc;
    {
        req::PhaseScope phase(uint32_t(Phase::Xcall));
        xc = engine().xcall(core, entry_id, entry_id);
    }
    Cycles xcall_done = core.now();
    if (tr.enabled()) {
        tr.begin("xpc", "xcall", start.value(), caller_lane);
        tr.end("xpc", "xcall", xcall_done.value(), caller_lane);
    }
    if (xc.exc != engine::XpcException::None) {
        out.exc = xc.exc;
        if (killed_pre_xcall)
            out.status = CallStatus::ServiceDead;
        else if (xc.exc == engine::XpcException::InvalidXEntry)
            out.status = CallStatus::ServiceDead;
        else if (xc.exc == engine::XpcException::InvalidXcallCap)
            out.status = CallStatus::NoCapability;
        else
            out.status = CallStatus::EngineFault;
        return out;
    }

    // Trampoline: pick an idle XPC context, switch to its C-stack,
    // save registers per the trampoline mode (paper 4.2).
    auto it = entryStates.find(entry_id);
    panic_if(it == entryStates.end(),
             "x-entry %lu has no registered handler",
             (unsigned long)entry_id);
    EntryState &state = it->second;
    Cycles tramp0 = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::Trampoline));
        core.spend(opts.trampoline == TrampolineMode::FullContext
                       ? opts.fullCtxCost
                       : opts.partialCtxCost);
    }
    if (tr.enabled()) {
        tr.begin("runtime", "trampoline", tramp0.value(), core.id());
        tr.end("runtime", "trampoline", core.now().value(), core.id());
    }

    if (state.busy >= state.maxContexts) {
        // No idle context: return an error to the caller (the
        // alternative policy, waiting, is the application's choice).
        contextExhausted.inc();
        auto ret = engine().xret(core);
        panic_if(ret.exc != engine::XpcException::None,
                 "xret failed unwinding a context-exhausted call");
        out.exc = engine::XpcException::None;
        out.ok = false;
        out.status = CallStatus::Exhausted;
        return out;
    }
    state.busy++;

    out.oneWay = core.now() - start;

    XpcServerCall call_ctx(*this, core, *state.handlerThread);
    call_ctx.op = opcode;
    call_ctx.reqLen = req_len;
    call_ctx.caller = xc.callerCapPtr;

    // In-handler faults strike while the callee owns the core.
    bool skip_handler = false;
    bool hang_injected = false;
    bool stall_injected = false;
    uint32_t slow_factor = 1;
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
            // A stalled server busy-loops and never replies. With a
            // deadline armed it burns the whole budget; with only a
            // watchdog it degrades to a hang. With neither, firing
            // it would wedge the caller forever - skip.
            if (deadline != 0) {
                stall_injected = true;
                inj->recordFired(*fault);
            } else if (opts.timeoutCycles.value() != 0) {
                hang_injected = true;
                inj->recordFired(*fault);
            }
            break;
          case FaultOp::SlowServer:
            slow_factor = fault->arg > 1 ? fault->arg : 2;
            inj->recordFired(*fault);
            break;
          case FaultOp::MutateAfterHandoff:
            // TOCTOU: arm the one-shot hostile rewrite; it fires
            // after the handler's arg-th seg read (recorded there)
            // and is disarmed after the handler if it never struck.
            if (req_len > 0)
                inj->armHandoffMutation(*fault);
            break;
          default:
            break;
        }
    }

    if (inj && inj->enabled)
        inj->atCrashSite("phase-handler");

    Cycles h0 = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::Handler));
        if (hang_injected) {
            call_ctx.hang(opts.timeoutCycles + Cycles(1000));
        } else if (stall_injected) {
            // Busy-loop well past the deadline; no reply is written.
            uint64_t now = core.now().value();
            call_ctx.hang(Cycles(
                (deadline > now ? deadline - now : 0) + 1000));
        } else if (!skip_handler) {
            state.handler(call_ctx);
            if (slow_factor > 1) {
                // Slow server: the handler ran at slow_factor x its
                // normal cost; charge the extra shares here so the
                // overrun is attributed to the handler phase.
                core.spend((core.now() - h0) * (slow_factor - 1));
            }
        }
    }
    out.handlerCycles = core.now() - h0;
    if (inj)
        inj->clearHandoffMutation();
    // The migrating-thread model: the handler ran on the caller's
    // core, but it is *server* work - its span goes on the server
    // thread's lane.
    span.handler(h0, core.now(),
                 req::threadLane(uint32_t(state.handlerThread->id())));

    if (!server_died && deadline != 0 &&
        core.now().value() >= deadline) {
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
            if (stall_injected || call_ctx.hung) {
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
        deadlineExpired.inc();
        tr.instantNow("runtime", "deadline_expired", caller_lane);
        out.ok = false;
        out.status = CallStatus::DeadlineExpired;
        out.roundTrip = core.now() - start;
        return out;
    }

    if (call_ctx.hung && opts.timeoutCycles.value() != 0 &&
        out.handlerCycles >= opts.timeoutCycles) {
        // The watchdog fires: the kernel unwinds the call and the
        // caller resumes with a timeout error (paper 6.1).
        state.busy--;
        bool unwound = xpcManager.forceUnwind(core);
        panic_if(!unwound, "timeout with no linkage record");
        out.ok = false;
        out.timedOut = true;
        out.status = CallStatus::Timeout;
        out.roundTrip = core.now() - start;
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
        } else if (fault->op == FaultOp::GarbageReply &&
                   call_ctx.repLen > 0) {
            // Garbage the in-place reply after the handler sealed
            // it, before control returns to the caller.
            uint64_t at = fault->arg % call_ctx.repLen;
            uint8_t b = 0;
            if (segRead(core, at, &b, 1)) {
                b ^= 0xA5;
                segWrite(core, at, &b, 1);
                inj->recordFired(*fault);
            }
        }
    }

    if (server_died) {
        // The callee crashed mid-call; it will never xret, so the
        // kernel unwinds the client (paper 4.2 termination).
        state.busy--;
        xpcManager.forceUnwind(core, /*even_if_invalid=*/true);
        out.ok = false;
        out.status = CallStatus::ServiceDead;
        out.roundTrip = core.now() - start;
        return out;
    }

    // Return trampoline (restore registers) and xret.
    Cycles rtramp0 = core.now();
    {
        req::PhaseScope phase(uint32_t(Phase::Trampoline));
        core.spend(opts.trampoline == TrampolineMode::FullContext
                       ? opts.fullCtxCost
                       : opts.partialCtxCost);
    }
    if (tr.enabled()) {
        tr.begin("runtime", "trampoline", rtramp0.value(), core.id());
        tr.end("runtime", "trampoline", core.now().value(), core.id());
    }
    state.busy--;

    if (inj && inj->enabled)
        inj->atCrashSite("phase-xret");

    Cycles xret0 = core.now();
    engine::XretResult ret;
    {
        req::PhaseScope phase(uint32_t(Phase::Xret));
        ret = engine().xret(core);
    }
    if (tr.enabled()) {
        tr.begin("xpc", "xret", xret0.value(), caller_lane);
        tr.end("xpc", "xret", core.now().value(), caller_lane);
    }
    if (ret.exc != engine::XpcException::None) {
        // The hardware refused the return: the record under us is
        // corrupt or the seg-reg no longer matches it. The kernel
        // consumes the record, restores what can be trusted, and the
        // caller sees an error instead of a wedged core.
        xpcManager.forceUnwind(core, /*even_if_invalid=*/true);
        out.exc = ret.exc;
        out.ok = false;
        if (ret.exc == engine::XpcException::InvalidLinkage)
            out.status = CallStatus::LinkageCorrupt;
        else if (ret.exc == engine::XpcException::InvalidSegMask)
            out.status = CallStatus::SegRevoked;
        else
            out.status = CallStatus::EngineFault;
        out.roundTrip = core.now() - start;
        return out;
    }

    if (call_ctx.failStatus != CallStatus::Ok) {
        // The handler ran but its work is invalid (message copy
        // faulted, or a nested call it depended on failed).
        out.ok = false;
        out.status = call_ctx.failStatus;
        out.roundTrip = core.now() - start;
        return out;
    }

    out.ok = true;
    out.replyLen = call_ctx.repLen;
    out.roundTrip = core.now() - start;

    // Fig. 5 attribution: the entry trampoline is everything between
    // the xcall retiring and the handler getting control.
    phaseStats.record(Phase::Xcall, xcall_done - start);
    phaseStats.record(Phase::Trampoline, out.oneWay - (xcall_done - start));
    phaseStats.record(Phase::Handler, out.handlerCycles);
    phaseStats.record(Phase::Xret, core.now() - xret0);
    phaseStats.record(Phase::OneWay, out.oneWay);
    phaseStats.record(Phase::RoundTrip, out.roundTrip);
    return out;
}

uint32_t
XpcRuntime::busyContexts(uint64_t id) const
{
    auto it = entryStates.find(id);
    return it == entryStates.end() ? 0 : it->second.busy;
}

} // namespace xpc::core
