#include "transport_copying.hh"

#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace xpc::core {

namespace {

/** ServerApi adapter over a kernel::ServerCall. */
class CopyingServerApi : public ServerApi
{
  public:
    CopyingServerApi(CopyingTransport &tr, kernel::ServerCall &call)
        : transport(tr), call(call)
    {}

    uint64_t opcode() const override { return call.opcode(); }
    uint64_t requestLen() const override { return call.requestLen(); }

    void
    readRequest(uint64_t off, void *dst, uint64_t len) override
    {
        call.readRequest(off, dst, len);
        mirrorFailure();
    }

    void
    writeRequest(uint64_t off, const void *src, uint64_t len) override
    {
        call.writeRequest(off, src, len);
        mirrorFailure();
    }

    void
    writeReply(uint64_t off, const void *src, uint64_t len) override
    {
        call.writeReply(off, src, len);
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
        if (req_len == 0)
            req_len = len;
        // Baseline handover: stage the sub-message into this server's
        // own client buffer for the next hop (one copy), call, then
        // copy the nested reply back in place (another copy). A
        // faulted copy fails the invocation: the next hop must not
        // run on a zeroed or stale stage, nor the caller see one.
        kernel::Thread &me = call.serverThread();
        hw::Core &c = call.core();
        std::vector<uint8_t> stage(len);
        call.readRequest(off, stage.data(), req_len);
        bool staged = call.failStatus == kernel::CallStatus::Ok;
        if (staged) {
            transport.requestArea(c, me, len);
            staged = transport.clientWrite(c, me, 0, stage.data(),
                                           req_len);
        }
        if (!staged) {
            fail(TransportStatus::CopyFault);
            return 0;
        }
        CallResult r = transport.call(c, me, svc, op, req_len, len);
        if (!r.ok) {
            fail(r.status == TransportStatus::Ok
                     ? TransportStatus::NestedFailure
                     : r.status);
            return 0;
        }
        uint64_t rlen = std::min<uint64_t>(r.replyLen, len);
        if (rlen > 0) {
            if (!transport.clientRead(c, me, 0, stage.data(), rlen)) {
                fail(TransportStatus::CopyFault);
                return 0;
            }
            call.writeRequest(off, stage.data(), rlen);
        }
        return rlen;
    }

    void
    replyFromRequest(uint64_t off, uint64_t len) override
    {
        // The reply must materialize in the reply channel: a copy.
        std::vector<uint8_t> stage(len);
        call.readRequest(off, stage.data(), len);
        call.writeReply(off, stage.data(), len);
    }

    uint64_t
    callServiceScratch(ServiceId svc, uint64_t op, const void *req,
                       uint64_t req_len, void *reply,
                       uint64_t reply_cap) override
    {
        return transport.scratchCall(call.core(), call.serverThread(),
                                     true, svc, op, req, req_len,
                                     reply, reply_cap);
    }

    hw::Core &core() override { return call.core(); }

    kernel::Thread *
    callerThread() override
    {
        return call.callerThread();
    }

    uint64_t replyLen() const override { return call.replyBytes(); }

    void
    readReply(uint64_t off, void *dst, uint64_t len) override
    {
        call.readReply(off, dst, len);
        mirrorFailure();
    }

  private:
    /** Message accesses poison the kernel's ServerCall; surface the
     *  first failure here too so dispatchHandler sees aborted
     *  fetches. */
    void
    mirrorFailure()
    {
        if (failStatus == TransportStatus::Ok &&
            call.failStatus != kernel::CallStatus::Ok)
            failStatus = call.failStatus;
    }

    CopyingTransport &transport;
    kernel::ServerCall &call;
};

} // namespace

CopyingTransport::CopyingTransport(kernel::Kernel &kernel,
                                   const char *name)
    : kern(kernel), transportName(name)
{
}

ServiceId
CopyingTransport::registerService(const ServiceDesc &desc,
                                  ServiceHandler handler)
{
    panic_if(!desc.handlerThread, "service needs a handler thread");
    ServiceId id = recordDesc(desc);
    uint64_t port = kern.createPort(
        *desc.handlerThread,
        [this, handler = std::move(handler)](kernel::ServerCall &call) {
            CopyingServerApi api(*this, call);
            dispatchHandler(api, handler);
            if (api.failStatus != TransportStatus::Ok)
                call.fail(api.failStatus);
        });
    ports.push_back(port);
    return id;
}

void
CopyingTransport::connect(kernel::Thread &client, ServiceId svc)
{
    // On Zircon holding the channel id is the capability, so the
    // grant is a no-op there and the call-side gate is the real
    // barrier; the grant gate still counts (and under enforcement
    // refuses) cross-tenant handouts.
    if (gateGrant(client, svc))
        kern.grantPort(client, ports.at(svc));
}

CopyingTransport::Conn &
CopyingTransport::connFor(kernel::Thread &client, uint64_t min_len)
{
    Conn &conn = conns[client.id()];
    if (conn.len >= min_len && conn.reqVa != 0)
        return conn;
    if (conn.reqVa != 0) {
        // Grow by replacing the buffers (contents not preserved).
        client.process()->space().freeMap(conn.reqVa);
        client.process()->space().freeMap(conn.replyVa);
    }
    uint64_t len = std::max<uint64_t>(min_len, 4096);
    conn.reqVa = client.process()->alloc(len);
    conn.replyVa = client.process()->alloc(len);
    conn.len = len;
    return conn;
}

VAddr
CopyingTransport::requestArea(hw::Core &core, kernel::Thread &client,
                              uint64_t len)
{
    (void)core;
    // Sealed calls append the envelope trailer past the staged
    // request; reserve the headroom up front so the trailer write
    // never triggers a buffer replacement that would drop it.
    return connFor(client, len + envelopeHeadroom()).reqVa;
}

bool
CopyingTransport::readStagedRequest(hw::Core &core,
                                    kernel::Thread &client, uint64_t off,
                                    void *dst, uint64_t len)
{
    Conn &conn = connFor(client, off + len);
    auto res = kern.userRead(core, *client.process(), conn.reqVa + off,
                             dst, len);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "staged request read faulted");
        std::memset(dst, 0, len);
    }
    return res.ok;
}

bool
CopyingTransport::clientWrite(hw::Core &core, kernel::Thread &client,
                              uint64_t off, const void *src,
                              uint64_t len)
{
    Conn &conn = connFor(client, off + len);
    auto res = kern.userWrite(core, *client.process(),
                              conn.reqVa + off, src, len);
    panic_if(!res.ok && res.fault != mem::FaultKind::Injected,
             "client produce faulted");
    return res.ok;
}

bool
CopyingTransport::clientRead(hw::Core &core, kernel::Thread &client,
                             uint64_t off, void *dst, uint64_t len)
{
    Conn &conn = connFor(client, off + len);
    auto res = kern.userRead(core, *client.process(),
                             conn.replyVa + off, dst, len);
    if (!res.ok) {
        panic_if(res.fault != mem::FaultKind::Injected,
                 "client consume faulted");
        std::memset(dst, 0, len);
    }
    return res.ok;
}

CallResult
CopyingTransport::call(hw::Core &core, kernel::Thread &client,
                       ServiceId svc, uint64_t opcode, uint64_t req_len,
                       uint64_t reply_cap)
{
    if (!gateCall(client, svc))
        return deniedCall();
    // Size the buffers for the sealed wire lengths *before* sealing:
    // a growth-by-replacement after the trailer is staged would drop
    // the request bytes on the floor.
    uint64_t wire_cap = reply_cap + envelopeHeadroom();
    Conn &conn = connFor(
        client, std::max(req_len + envelopeHeadroom(), wire_cap));
    return sealedCall(core, client, req_len, [&](uint64_t wire_len) {
        return kern.callPort(core, client, ports.at(svc), opcode,
                             conn.reqVa, wire_len, conn.replyVa,
                             std::min(wire_cap, conn.len));
    });
}

} // namespace xpc::core
