#include "zircon.hh"

#include "sim/logging.hh"

namespace xpc::kernel {

ZirconKernel::ZirconKernel(hw::Machine &machine) : Kernel(machine)
{
    costs.schedule = params.schedule;
    stats.setName("zircon");
    stats.addCounter("channel_msgs", &channelMsgs);
}

uint64_t
ZirconKernel::createPort(Thread &server, PortHandler handler)
{
    Channel ch;
    ch.id = channels.size();
    ch.server = &server;
    ch.handler = std::move(handler);
    uint64_t npages = params.maxMsgBytes / pageSize;
    ch.kernelBuf = mach.allocator().allocFrames(npages);
    panic_if(ch.kernelBuf == 0, "out of memory for channel buffer");
    ch.serverReqVa = server.process()->alloc(params.maxMsgBytes);
    ch.serverReplyVa = server.process()->alloc(params.maxMsgBytes);
    channels.push_back(std::move(ch));
    return channels.back().id;
}

void
ZirconKernel::chargeSyscall(hw::Core &core)
{
    trapEnter(core);
    saveRestoreRegs(core, 2 * params.syscallRegs);
    core.spend(params.syscallConst);
    trapExit(core);
}

ZirconServerCall::ZirconServerCall(ZirconKernel &k, hw::Core &c,
                                   Thread &s)
    : ServerCall(k, c, s)
{
}

void
ZirconServerCall::readRequest(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > reqCapacity, "request read out of bounds");
    fetchRequest(reqVa + off, dst, len);
}

void
ZirconServerCall::writeRequest(uint64_t off, const void *src,
                               uint64_t len)
{
    panic_if(off + len > reqCapacity, "request write out of bounds");
    writeServer(reqVa + off, src, len);
}

void
ZirconServerCall::writeReply(uint64_t off, const void *src, uint64_t len)
{
    panic_if(off + len > replyCap, "reply write out of bounds");
    if (replyLen < off + len)
        replyLen = off + len;
    writeServer(replyVa + off, src, len);
}

void
ZirconServerCall::readReply(uint64_t off, void *dst, uint64_t len)
{
    panic_if(off + len > replyCap, "reply read out of bounds");
    if (len == 0)
        return;
    readServer(replyVa + off, dst, len);
}

CallOutcome
ZirconKernel::callPort(hw::Core &core, Thread &client, uint64_t ch_id,
                       uint64_t opcode, VAddr req_va, uint64_t req_len,
                       VAddr reply_va, uint64_t reply_cap)
{
    CallOutcome out;
    panic_if(ch_id >= channels.size(), "no such channel %lu",
             (unsigned long)ch_id);
    Channel &ch = channels[ch_id];
    panic_if(req_len > params.maxMsgBytes,
             "channel message of %lu bytes exceeds the limit",
             (unsigned long)req_len);
    channelMsgs.inc();

    // The whole channel round-trip is one hop of a request chain,
    // bracketed on the client's lane.
    CallBracket bracket(*this, core, out, deadlineExpired);
    bracket.open("zircon", "channel_call",
                 req::threadLane(uint32_t(client.id())), client.tenant);

    bool cross_core = ch.server->sched.homeCore != core.id();
    hw::Core &scre =
        cross_core ? mach.core(ch.server->sched.homeCore) : core;

    // A fault mid-call must still return control to the client: pay
    // for the hop back (if the server was woken) and surface the
    // status instead of panicking the whole simulation.
    bool server_woken = false;
    auto abortCall = [&](CallStatus status) {
        if (server_woken) {
            if (cross_core) {
                mach.sendIpi(scre.id(), core.id());
                core.syncTo(scre.now());
                core.spend(costs.remoteWake);
            } else {
                core.spend(params.schedule);
                contextSwitches.inc();
                setCurrent(core.id(), &client);
            }
        }
        bracket.fail(status);
        return out;
    };

    // Budget already exhausted by upstream hops: reject before the
    // channel write.
    if (bracket.expiredBeforeCall())
        return abortCall(CallStatus::DeadlineExpired);

    // --- zx_channel_write: copy in (user -> kernel). --------------
    chargeSyscall(core);
    {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(req_len);
        if (req_len > 0) {
            auto res = userRead(core, *client.process(), req_va,
                                stage.data(), req_len);
            if (!res.ok)
                return abortCall(CallStatus::CopyFault);
            core.spend(mach.mem().writePhys(core.id(), ch.kernelBuf,
                                            stage.data(), req_len));
        }
    }

    // --- Wake the server; the client blocks on the reply. ---------
    server_woken = true;
    {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::ProcessSwitch));
        if (cross_core) {
            mach.sendIpi(core.id(), scre.id());
            scre.spend(costs.remoteWake);
            scre.syncTo(core.now());
        } else {
            core.spend(params.schedule);
            contextSwitches.inc();
            setCurrent(core.id(), ch.server);
        }
        core.spend(params.portWait);
    }

    // --- zx_channel_read on the server: copy out (kernel->user). --
    chargeSyscall(scre);
    scre.spend(params.portWait);
    if (req_len > 0) {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(req_len);
        scre.spend(mach.mem().readPhys(scre.id(), ch.kernelBuf,
                                       stage.data(), req_len));
        auto res = userWrite(scre, *ch.server->process(),
                             ch.serverReqVa, stage.data(), req_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
    }

    out.oneWay = scre.now() - bracket.start();

    // The channel delivered the request: corruption strikes the
    // server-visible copy.
    Process &sproc = *ch.server->process();
    bracket.corruptPayload(req_len, [&](uint64_t at, uint8_t m) {
        return xorUserByte(scre, sproc, ch.serverReqVa + at, m);
    });

    // --- Handler. --------------------------------------------------
    ZirconServerCall call_ctx(*this, scre, *ch.server);
    call_ctx.client = &client;
    call_ctx.op = opcode;
    call_ctx.reqLen = req_len;
    call_ctx.reqCapacity = params.maxMsgBytes;
    call_ctx.replyCap = std::min(reply_cap, params.maxMsgBytes);
    call_ctx.reqVa = ch.serverReqVa;
    call_ctx.replyVa = ch.serverReplyVa;
    bracket.runHandler(scre, req::threadLane(uint32_t(ch.server->id())),
                       req_len, [&] { ch.handler(call_ctx); });

    // Expired while the server held the request: hop back to the
    // client and discard the (partial) reply it gave up on.
    if (bracket.expiredAfterHandler(scre.now(), "zircon"))
        return abortCall(CallStatus::DeadlineExpired);

    if (call_ctx.failStatus != CallStatus::Ok)
        return abortCall(call_ctx.failStatus);

    bracket.garbageReply(call_ctx.replyLen, [&](uint64_t at, uint8_t m) {
        return xorUserByte(scre, sproc, ch.serverReplyVa + at, m);
    });

    // --- Reply: server write, schedule back, client read. ---------
    uint64_t reply_len = call_ctx.replyLen;
    chargeSyscall(scre);
    if (reply_len > 0) {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(reply_len);
        auto res = userRead(scre, *ch.server->process(),
                            ch.serverReplyVa, stage.data(), reply_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
        scre.spend(mach.mem().writePhys(scre.id(), ch.kernelBuf,
                                        stage.data(), reply_len));
    }

    {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::ProcessSwitch));
        if (cross_core) {
            mach.sendIpi(scre.id(), core.id());
            core.syncTo(scre.now());
            core.spend(costs.remoteWake);
        } else {
            core.spend(params.schedule);
            contextSwitches.inc();
            setCurrent(core.id(), &client);
        }
    }
    server_woken = false;

    chargeSyscall(core);
    if (reply_len > 0) {
        req::PhaseScope phase(mach.requests(), uint32_t(Phase::Transfer));
        std::vector<uint8_t> stage(reply_len);
        core.spend(mach.mem().readPhys(core.id(), ch.kernelBuf,
                                       stage.data(), reply_len));
        auto res = userWrite(core, *client.process(), reply_va,
                             stage.data(), reply_len);
        if (!res.ok)
            return abortCall(CallStatus::CopyFault);
    }

    bracket.succeed(reply_len);
    phaseStats.record(Phase::OneWay, out.oneWay);
    phaseStats.record(Phase::Handler, out.handlerCycles);
    phaseStats.record(Phase::RoundTrip, out.roundTrip);
    return out;
}

} // namespace xpc::kernel
