#include "sel4.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace xpc::kernel {

Sel4Kernel::Sel4Kernel(hw::Machine &machine, LongMsgMode port_mode)
    : Kernel(machine), portMode(port_mode)
{
    stats.setName("sel4");
    stats.addCounter("fastpath_calls", &fastpathCalls);
    stats.addCounter("slowpath_calls", &slowpathCalls);
    stats.addCounter("cross_core_calls", &crossCoreCalls);
}

uint64_t
Sel4Kernel::createPort(Thread &server, PortHandler handler)
{
    Endpoint ep;
    ep.id = endpoints.size();
    ep.server = &server;
    ep.handler = std::move(handler);
    ep.scratchLen = params.sharedBufBytes;
    ep.scratchVa = server.process()->alloc(ep.scratchLen);
    endpoints.push_back(std::move(ep));
    return endpoints.back().id;
}

void
Sel4Kernel::grantPort(Thread &client, uint64_t port)
{
    panic_if(port >= endpoints.size(), "no such endpoint %lu",
             (unsigned long)port);
    endpointCaps[{client.id(), port}] = true;
}

Sel4Kernel::SharedBuf &
Sel4Kernel::sharedFor(Endpoint &ep, Thread &client)
{
    auto it = ep.shared.find(client.id());
    if (it != ep.shared.end())
        return it->second;

    // First long message from this client: the kernel sets up a
    // buffer shared between the two address spaces.
    uint64_t len = params.sharedBufBytes;
    uint64_t npages = len / pageSize;
    PAddr phys = mach.allocator().allocFrames(npages);
    panic_if(phys == 0, "out of memory for shared IPC buffer");
    mach.phys().clear(phys, len);

    AddressSpace &cspace = client.process()->space();
    AddressSpace &sspace = ep.server->process()->space();
    VAddr cva = cspace.reserveSegRange(len);
    VAddr sva = sspace.reserveSegRange(len);
    // reserveSegRange found us a free range; convert it to a real
    // shared mapping.
    cspace.releaseSegRange(cva);
    sspace.releaseSegRange(sva);
    for (uint64_t i = 0; i < npages; i++) {
        cspace.pageTable().map(cva + i * pageSize, phys + i * pageSize,
                               mem::permsRW);
        sspace.pageTable().map(sva + i * pageSize, phys + i * pageSize,
                               mem::permsRW);
    }
    SharedBuf buf{cva, sva, len};
    return ep.shared.emplace(client.id(), buf).first->second;
}

Sel4ServerCall::Sel4ServerCall(Sel4Kernel &k, hw::Core &c, Thread &s)
    : ServerCall(k, c, s)
{
}

Sel4Kernel &
Sel4ServerCall::kernel()
{
    return static_cast<Sel4Kernel &>(kern);
}

void
Sel4ServerCall::readRequest(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > reqCapacity, "request read out of bounds");
    if (len == 0)
        return; // memcpy on a null dst is UB even for zero bytes
    if (mode == Mode::Registers) {
        std::memcpy(dst, regs + off, len);
        // MutateAfterHandoff in the register file itself.
        FaultInjector *inj = kern.machine().faultInjector();
        if (inj && inj->noteServerRead()) {
            for (uint64_t i = 0; i < len && i < 8; i++)
                regs[off + i] ^= 0xA5;
        }
        return;
    }
    fetchRequest(requestVa() + off, dst, len);
}

void
Sel4ServerCall::writeRequest(uint64_t off, const void *src,
                             uint64_t len)
{
    panic_if(off + len > reqCapacity, "request write out of bounds");
    if (len == 0)
        return;
    if (mode == Mode::Registers) {
        std::memcpy(regs + off, src, len);
        return;
    }
    writeServer(requestVa() + off, src, len);
}

void
Sel4ServerCall::writeReply(uint64_t off, const void *src, uint64_t len)
{
    panic_if(off + len > replyCap, "reply write out of bounds");
    if (len == 0)
        return;
    uint64_t prev = replyLen;
    if (replyLen < off + len)
        replyLen = off + len;

    if (!replyInBuffer && replyLen <= kernel().params.regMsgMax) {
        std::memcpy(regsReply + off, src, len);
        return;
    }
    if (!replyInBuffer) {
        // The reply outgrew the registers: migrate what was staged.
        if (prev > 0)
            writeServer(replyDst(), regsReply, prev);
        replyInBuffer = true;
    }
    writeServer(replyDst() + off, src, len);
}

void
Sel4ServerCall::readReply(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > replyCap, "reply read out of bounds");
    if (len == 0)
        return;
    if (!replyInBuffer) {
        std::memcpy(dst, regsReply + off, len);
        return;
    }
    readServer(replyDst() + off, dst, len);
}

CallOutcome
Sel4Kernel::callPort(hw::Core &core, Thread &client, uint64_t ep_id,
                     uint64_t opcode, VAddr req_va, uint64_t req_len,
                     VAddr reply_va, uint64_t reply_cap)
{
    CallOutcome out;
    panic_if(ep_id >= endpoints.size(), "no such endpoint %lu",
             (unsigned long)ep_id);
    Endpoint &ep = endpoints[ep_id];
    if (!endpointCaps[{client.id(), ep_id}]) {
        warn("thread %u lacks a cap for endpoint %lu", client.id(),
             (unsigned long)ep_id);
        out.status = CallStatus::NoCapability;
        return out;
    }

    // One seL4 IPC is one hop of a request chain, bracketed on the
    // client's lane.
    CallBracket bracket(*this, core, out, deadlineExpired);
    auto &tr = mach.tracer();
    bracket.open("sel4", "call", req::threadLane(uint32_t(client.id())),
                 client.tenant);
    Cycles start = bracket.start();

    // Abandon the call: if the kernel already switched to the server,
    // charge the bare return IPC before surfacing the error.
    auto abortCall = [&](CallStatus status) {
        if (current(core.id()) != &client) {
            trapEnter(core);
            saveRestoreRegs(core, params.fastpathRegs);
            core.spend(params.trapConst);
            core.spend(params.switchConst);
            if (!mach.config().mem.taggedTlb) {
                core.spend(mach.config().core.tlbFlush);
                mach.mem().flushTlb(core.id());
            }
            setCurrent(core.id(), &client);
            saveRestoreRegs(core, params.fastpathRegs);
            core.spend(params.restoreConst);
            trapExit(core);
        }
        bracket.fail(status);
        return out;
    };

    // Out of budget before the syscall even traps: an upstream hop
    // burned the whole deadline. Reject instead of calling.
    if (bracket.expiredBeforeCall())
        return abortCall(CallStatus::DeadlineExpired);

    Sel4Phases phases;
    bool cross_core = ep.server->sched.homeCore != core.id();
    // A cross-core call runs the handler on the server's home core.
    hw::Core &handler_core =
        cross_core ? mach.core(ep.server->sched.homeCore) : core;
    bool medium = req_len > params.regMsgMax &&
                  req_len <= params.ipcBufMax;
    bool large = req_len > params.ipcBufMax;
    bool reply_large_cap = reply_cap > params.ipcBufMax;
    bool slowpath = cross_core || medium ||
                    client.sched.priority != ep.server->sched.priority;

    // --- Message transfer, client half. ---------------------------
    // For long messages the client first copies its private request
    // into the shared window; this happens in user mode before the
    // syscall (the paper's "Message Transfer" phase).
    Cycles t0 = core.now();
    Sel4ServerCall call_ctx(*this, handler_core, *ep.server);
    call_ctx.client = &client;
    call_ctx.op = opcode;
    call_ctx.reqLen = req_len;
    call_ctx.reqCapacity = params.regMsgMax;
    call_ctx.replyCap = reply_cap;
    call_ctx.longMode = portMode;
    call_ctx.serverBufVa = ep.scratchVa;

    SharedBuf *shared = nullptr;
    if (large || reply_large_cap)
        shared = &sharedFor(ep, client);
    if (shared && portMode == LongMsgMode::OneCopy) {
        // One-copy replies are produced straight into the window.
        call_ctx.replySharedVa = shared->serverVa;
    }
    if (large) {
        panic_if(req_len > shared->len, "message exceeds shared buffer");
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        auto res =
            mach.mem().copy(core.id(), userCtx(*client.process()),
                            req_va, userCtx(*client.process()),
                            shared->clientVa, req_len);
        core.spend(res.cycles);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        call_ctx.mode = Sel4ServerCall::Mode::Shared;
        call_ctx.sharedVa = shared->serverVa;
        call_ctx.serverBufVa = ep.scratchVa;
        call_ctx.reqCapacity = std::min(shared->len, ep.scratchLen);
    } else if (req_len > 0 && !medium) {
        // Register transfer: load the words now (functionally); the
        // cycle cost rides in the process-switch phase.
        auto res = userRead(core, *client.process(), req_va,
                            call_ctx.regs, req_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        call_ctx.mode = Sel4ServerCall::Mode::Registers;
    }

    // --- Phase 1: trap. -------------------------------------------
    Cycles trap_start = core.now();
    PhaseTimer trap(core, Phase::Trap, "sel4", core.id());
    trapEnter(core);
    saveRestoreRegs(core, params.fastpathRegs);
    core.spend(params.trapConst);
    phases.trap = trap.stop();

    // --- Phase 2: IPC logic (capability fetch + checks). ----------
    PhaseTimer logic(core, Phase::IpcLogic, "sel4", core.id());
    // The cap lookup reads the client's cnode slot and the endpoint
    // object, both in kernel memory.
    uint64_t scratch[2];
    core.spend(mach.mem().readPhys(core.id(), 0x1000 + ep_id * 64,
                                   scratch, 16));
    core.spend(params.logicConst);
    if (slowpath) {
        slowpathCalls.inc();
        core.spend(params.slowpathExtra);
    } else {
        fastpathCalls.inc();
    }
    phases.logic = logic.stop();

    // Medium messages: the kernel copies through the IPC buffer
    // while still in the kernel (slow path).
    t0 = core.now();
    if (medium) {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        auto res = mach.mem().copy(
            core.id(), userCtx(*client.process()), req_va,
            userCtx(*ep.server->process()), ep.scratchVa, req_len);
        core.spend(res.cycles);
        if (!res.ok) {
            trapExit(core);
            return abortCall(CallStatus::CopyFault);
        }
        call_ctx.mode = Sel4ServerCall::Mode::IpcBuffer;
        call_ctx.serverBufVa = ep.scratchVa;
        call_ctx.reqCapacity = ep.scratchLen;
    }
    Cycles medium_copy = core.now() - t0;

    // --- Phase 3: process switch. ---------------------------------
    PhaseTimer process_switch(core, Phase::ProcessSwitch, "sel4",
                              core.id());
    if (cross_core) {
        crossCoreCalls.inc();
        hw::Core &scre = mach.core(ep.server->sched.homeCore);
        mach.sendIpi(core.id(), scre.id());
        scre.spend(costs.remoteWake);
        core.spend(costs.schedule);
    }
    core.spend(params.switchConst);
    if (!mach.config().mem.taggedTlb) {
        core.spend(mach.config().core.tlbFlush);
        mach.mem().flushTlb(core.id());
    }
    setCurrent(core.id(), ep.server);
    phases.processSwitch = process_switch.stop();

    // --- Phase 4: restore the server's context, back to user. -----
    PhaseTimer restore(core, Phase::Restore, "sel4", core.id());
    saveRestoreRegs(core, params.fastpathRegs);
    core.spend(params.restoreConst);
    trapExit(core);
    phases.restore = restore.stop();

    // Two-copy discipline: in user mode, the server copies the
    // message to private memory before using it.
    if (cross_core)
        handler_core.syncTo(core.now());
    t0 = handler_core.now();
    if (large && portMode == LongMsgMode::TwoCopy) {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        auto res = mach.mem().copy(
            handler_core.id(), userCtx(*ep.server->process()),
            shared->serverVa, userCtx(*ep.server->process()),
            ep.scratchVa, req_len);
        handler_core.spend(res.cycles);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        call_ctx.serverBufVa = ep.scratchVa;
    }
    phases.transfer = medium_copy + (handler_core.now() - t0);
    if (large) {
        // Include the client-side shared-buffer fill.
        phases.transfer += trap_start - start;
    }
    if (tr.enabled() && phases.transfer.value() > 0) {
        tr.begin("sel4", "transfer", t0.value(), handler_core.id());
        tr.end("sel4", "transfer",
               t0.value() + phases.transfer.value(),
               handler_core.id());
    }

    out.oneWay = (handler_core.now() > core.now() ? handler_core.now()
                                                  : core.now()) -
                 start;

    // The transfer delivered the request: corruption strikes the
    // register file or the buffer the handler reads.
    Process &sproc = *ep.server->process();
    bracket.corruptPayload(call_ctx.reqLen, [&](uint64_t at, uint8_t m) {
        if (call_ctx.mode != Sel4ServerCall::Mode::Registers)
            return xorUserByte(core, sproc, call_ctx.requestVa() + at, m);
        call_ctx.regs[at] ^= m;
        return true;
    });

    // --- The handler runs in the server's address space. ----------
    bracket.runHandler(handler_core,
                       req::threadLane(uint32_t(ep.server->id())),
                       req_len, [&] { ep.handler(call_ctx); });
    if (cross_core) {
        mach.sendIpi(handler_core.id(), core.id());
        core.syncTo(handler_core.now());
        core.spend(costs.remoteWake);
    }

    // The deadline expired while the server held the request
    // (stalled, slow, or genuinely long handler). The kernel unwinds
    // back to the client and discards whatever partial reply exists -
    // the caller already gave up on it.
    if (bracket.expiredAfterHandler(core.now(), "sel4"))
        return abortCall(CallStatus::DeadlineExpired);

    // A handler-flagged failure (nested call went wrong, message
    // access faulted) aborts the reply: the caller gets the status,
    // not a half-built message.
    if (call_ctx.failStatus != CallStatus::Ok)
        return abortCall(call_ctx.failStatus);

    bracket.garbageReply(call_ctx.replyLen, [&](uint64_t at, uint8_t m) {
        if (call_ctx.replyInBuffer)
            return xorUserByte(core, sproc, call_ctx.replyDst() + at, m);
        call_ctx.regsReply[at] ^= m;
        return true;
    });

    // --- Reply: transfer back, then the return IPC. ---------------
    uint64_t reply_len = call_ctx.replyLen;
    panic_if(reply_len > reply_cap, "reply overflows client buffer");
    if (reply_len > 0) {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        if (!call_ctx.replyInBuffer) {
            // Reply travelled in registers.
            auto res = userWrite(core, *client.process(), reply_va,
                                 call_ctx.regsReply, reply_len);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
        } else if (reply_len > params.ipcBufMax) {
            // Large reply through the shared window.
            panic_if(!shared, "large reply without a shared buffer");
            if (call_ctx.replySharedVa == 0) {
                // Two-copy: server private reply -> shared window.
                auto res = mach.mem().copy(
                    core.id(), userCtx(*ep.server->process()),
                    ep.scratchVa, userCtx(*ep.server->process()),
                    shared->serverVa, reply_len);
                core.spend(res.cycles);
                if (!res.ok)
                    return abortCall(CallStatus::CopyFault);
            }
            auto res = mach.mem().copy(
                core.id(), userCtx(*client.process()),
                shared->clientVa, userCtx(*client.process()),
                reply_va, reply_len);
            core.spend(res.cycles);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
        } else {
            // Small/medium reply from a buffer: kernel copy on the
            // slow path.
            VAddr src = call_ctx.replySharedVa ? call_ctx.replySharedVa
                                               : ep.scratchVa;
            auto res = mach.mem().copy(
                core.id(), userCtx(*ep.server->process()), src,
                userCtx(*client.process()), reply_va, reply_len);
            core.spend(res.cycles);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
            core.spend(params.slowpathExtra);
        }
    }

    // Return-direction IPC (seL4's ReplyRecv fast path).
    trapEnter(core);
    saveRestoreRegs(core, params.fastpathRegs);
    core.spend(params.trapConst);
    core.spend(params.logicConst);
    core.spend(params.switchConst);
    if (!mach.config().mem.taggedTlb) {
        core.spend(mach.config().core.tlbFlush);
        mach.mem().flushTlb(core.id());
    }
    setCurrent(core.id(), &client);
    saveRestoreRegs(core, params.fastpathRegs);
    core.spend(params.restoreConst);
    trapExit(core);

    phaseStats.record(Phase::Trap, phases.trap);
    phaseStats.record(Phase::IpcLogic, phases.logic);
    phaseStats.record(Phase::ProcessSwitch, phases.processSwitch);
    phaseStats.record(Phase::Restore, phases.restore);
    phaseStats.record(Phase::Transfer, phases.transfer);
    phaseStats.record(Phase::RoundTrip, core.now() - start);
    phaseStats.record(Phase::OneWay, out.oneWay);
    bracket.succeed(reply_len);
    return out;
}

} // namespace xpc::kernel
