#include "transport_xpc.hh"

#include "sim/logging.hh"

namespace xpc::core {

namespace {

/** ServerApi adapter over an XpcServerCall. */
class XpcServerApi : public ServerApi
{
  public:
    XpcServerApi(XpcTransport &tr, XpcServerCall &call)
        : transport(tr), call(call)
    {}

    uint64_t opcode() const override { return call.opcode(); }
    uint64_t requestLen() const override { return call.requestLen(); }

    void
    readRequest(uint64_t off, void *dst, uint64_t len) override
    {
        call.readMsg(off, dst, len);
        mirrorFailure();
    }

    void
    writeRequest(uint64_t off, const void *src, uint64_t len) override
    {
        // Request and reply share the relay segment.
        call.writeMsg(off, src, len);
        mirrorFailure();
    }

    void
    writeReply(uint64_t off, const void *src, uint64_t len) override
    {
        call.writeMsg(off, src, len);
        mirrorFailure();
    }

    void
    setReplyLen(uint64_t len) override
    {
        call.setReplyLen(len);
    }

    uint64_t
    callService(ServiceId svc, uint64_t op, uint64_t off,
                uint64_t len, uint64_t req_len) override
    {
        // Handover: seg-mask narrows the window; no bytes move.
        auto out = call.callNested(transport.entryOf(svc), op, off,
                                   len,
                                   req_len == 0 ? len : req_len);
        if (!out.ok) {
            fail(out.status == TransportStatus::Ok
                     ? TransportStatus::NestedFailure
                     : out.status);
            return 0;
        }
        return out.replyLen;
    }

    void
    replyFromRequest(uint64_t off, uint64_t len) override
    {
        // The data is already in the relay segment: free.
        call.setReplyLen(off + len);
    }

    uint64_t
    callServiceScratch(ServiceId svc, uint64_t op, const void *req,
                       uint64_t req_len, void *reply,
                       uint64_t reply_cap) override
    {
        return transport.scratchCall(call.core(),
                                     call.handlerThread(), true, svc,
                                     op, req, req_len, reply,
                                     reply_cap);
    }

    hw::Core &core() override { return call.core(); }

    kernel::Thread *
    callerThread() override
    {
        return transport.runtime().manager().threadByCapBitmap(
            call.callerCap());
    }

    uint64_t replyLen() const override { return call.replyLen(); }

    void
    readReply(uint64_t off, void *dst, uint64_t len) override
    {
        // Replies live in the relay segment, same as the request.
        call.readMsg(off, dst, len);
        mirrorFailure();
    }

  private:
    /** Message accesses poison the XpcServerCall; surface the first
     *  failure here too so dispatchHandler sees aborted fetches. */
    void
    mirrorFailure()
    {
        if (failStatus == TransportStatus::Ok &&
            call.failStatus != kernel::CallStatus::Ok)
            failStatus = call.failStatus;
    }

    XpcTransport &transport;
    XpcServerCall &call;
};

} // namespace

XpcTransport::XpcTransport(XpcRuntime &runtime) : rt(runtime) {}

ServiceId
XpcTransport::registerService(const ServiceDesc &desc,
                              ServiceHandler handler)
{
    panic_if(!desc.handlerThread, "service needs a handler thread");
    ServiceId id = recordDesc(desc);
    uint64_t entry = rt.registerEntry(
        *desc.handlerThread, *desc.handlerThread,
        [this, handler = std::move(handler)](XpcServerCall &call) {
            XpcServerApi api(*this, call);
            dispatchHandler(api, handler);
            if (api.failStatus != TransportStatus::Ok)
                call.fail(api.failStatus);
        },
        desc.maxContexts);
    entryIds.push_back(entry);
    creators.push_back(desc.handlerThread);
    return id;
}

void
XpcTransport::connect(kernel::Thread &client, ServiceId svc)
{
    if (!gateGrant(client, svc))
        return;
    if (client.linkStack == 0)
        rt.manager().initThread(client);
    rt.manager().grantXcallCap(*creators.at(svc), client,
                               entryIds.at(svc));
}

VAddr
XpcTransport::requestArea(hw::Core &core, kernel::Thread &client,
                          uint64_t len)
{
    // A sealed call appends the envelope trailer past the staged
    // request, so the segment needs trailer headroom beyond what the
    // application asked for.
    len += envelopeHeadroom();
    auto it = activeSeg.find(client.id());
    if (it != activeSeg.end() &&
        !rt.manager().segById(it->second.segId)) {
        // The cached segment was revoked out from under the client;
        // forget it and allocate a replacement.
        activeSeg.erase(it);
        it = activeSeg.end();
    }
    if (it != activeSeg.end() && it->second.len >= len) {
        // Cache hit - but another thread (a restarted server doing
        // its wiring, say) may have run on this core since the last
        // call, so the client's context and segment may not be the
        // active ones. Reinstall before handing the window out.
        rt.ensureInstalled(core, client);
        if (core.csrs.segId != it->second.segId) {
            auto exc = rt.engine().swapseg(core, it->second.slot);
            panic_if(exc != engine::XpcException::None ||
                         core.csrs.segId != it->second.segId,
                     "failed to reactivate a cached relay segment");
        }
        return it->second.va;
    }

    if (it != activeSeg.end()) {
        // Grow by replacing: allocate a bigger segment (allocRelayMem
        // swaps it in, parking the old one in the new slot), then
        // retire the old segment. Its contents are not preserved.
        RelaySegHandle old = it->second;
        RelaySegHandle fresh = rt.allocRelayMem(core, client, len);
        engine::RelaySegEntry empty;
        engine::XpcEngine::writeSegListEntry(
            rt.kernel().machine().phys(),
            client.process()->space().segList(), fresh.slot, empty);
        rt.manager().freeRelaySeg(*client.process(), old.segId);
        activeSeg[client.id()] = fresh;
        return fresh.va;
    }
    RelaySegHandle handle = rt.allocRelayMem(core, client, len);
    activeSeg[client.id()] = handle;
    return handle.va;
}

bool
XpcTransport::clientWrite(hw::Core &core, kernel::Thread &client,
                          uint64_t off, const void *src, uint64_t len)
{
    (void)client;
    return rt.segWrite(core, off, src, len);
}

bool
XpcTransport::clientRead(hw::Core &core, kernel::Thread &client,
                         uint64_t off, void *dst, uint64_t len)
{
    (void)client;
    return rt.segRead(core, off, dst, len);
}

void
XpcTransport::prepareScratch(hw::Core &core, kernel::Thread &server,
                             uint64_t len)
{
    if (scratchSegs.count(server.id()))
        return;
    RelaySegHandle handle = rt.allocRelayMem(core, server, len);
    // Park it back into its seg-list slot; handlers swap it in.
    auto exc = rt.engine().swapseg(core, handle.slot);
    panic_if(exc != engine::XpcException::None,
             "failed to park a scratch segment");
    scratchSegs[server.id()] = handle;
}

uint64_t
XpcTransport::scratchCall(hw::Core &core, kernel::Thread &caller,
                          bool in_handler, ServiceId svc, uint64_t op,
                          const void *req, uint64_t req_len,
                          void *reply, uint64_t reply_cap)
{
    // Swap the currently active window out (inside a handler that is
    // the caller's handed-over segment) and this thread's scratch
    // segment in; restore before returning so the xret seg-reg check
    // passes (paper 3.3).
    const RelaySegHandle *segp = scratchFor(caller.id());
    panic_if(!segp, "scratchCall without prepareScratch");
    if (!rt.manager().segById(segp->segId)) {
        // The scratch segment was revoked while a nested call held
        // it. Re-provision the same slot with a fresh segment so the
        // thread keeps its ability to make nested calls.
        RelaySegHandle stale = *segp;
        kernel::RelaySeg fresh = rt.manager().allocRelaySeg(
            &core, *caller.process(), stale.len, stale.slot);
        scratchSegs[caller.id()] =
            RelaySegHandle{fresh.segId, fresh.va, fresh.len,
                           stale.slot};
        segp = scratchFor(caller.id());
    }
    const RelaySegHandle &seg = *segp;
    if (!in_handler)
        rt.ensureInstalled(core, caller);

    auto exc = rt.engine().swapseg(core, seg.slot);
    panic_if(exc != engine::XpcException::None, "swapseg failed");
    panic_if(core.csrs.segId != seg.segId,
             "scratch slot held a different segment");
    panic_if(req_len > seg.len, "scratch request too large");

    // A faulted staging copy leaves the previous request in the
    // segment: calling would hand the callee stale bytes.
    XpcCallOutcome out;
    if (rt.segWrite(core, 0, req, req_len))
        out = rt.callCurrent(core, entryOf(svc), op, req_len);
    if (!out.ok) {
        // Restore the previous window before reporting, so an outer
        // xret's seg-reg check still passes.
        rt.engine().swapseg(core, seg.slot);
        return scratchFailed;
    }
    uint64_t rlen = std::min<uint64_t>(out.replyLen, reply_cap);
    if (rlen > 0)
        rt.segRead(core, 0, reply, rlen);

    exc = rt.engine().swapseg(core, seg.slot);
    panic_if(exc != engine::XpcException::None,
             "swapseg restore failed");
    return rlen;
}

CallResult
XpcTransport::call(hw::Core &core, kernel::Thread &client,
                   ServiceId svc, uint64_t opcode, uint64_t req_len,
                   uint64_t reply_cap)
{
    (void)reply_cap; // replies are in-place; capacity is the segment
    if (!gateCall(client, svc))
        return deniedCall();
    return sealedCall(core, client, req_len, [&](uint64_t wire_len) {
        return rt.call(core, client, entryIds.at(svc), opcode, wire_len);
    });
}

} // namespace xpc::core
