#include "transport.hh"

#include <algorithm>

#include "sim/crc.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace xpc::core {

namespace {

/**
 * The validated view of a sealed request (copy-then-validate). Every
 * read the handler issues is served from the snapshot the envelope
 * check already verified - the shared seg / message buffer is never
 * re-fetched, so a peer rewriting it mid-handler (MutateAfterHandoff)
 * cannot change what the parser already validated. Writes go through
 * to the substrate (a later callService forwards real bytes) and are
 * mirrored into the snapshot so the handler reads its own writes;
 * a nested callService refreshes the forwarded window from the
 * substrate exactly once, since that range now holds the callee's
 * reply, not caller-controlled request bytes.
 */
class SnapshotServerApi : public ServerApi
{
  public:
    SnapshotServerApi(ServerApi &inner, std::vector<uint8_t> snap)
        : inner(inner), snap(std::move(snap)), reqLen(this->snap.size())
    {
    }

    uint64_t opcode() const override { return inner.opcode(); }
    uint64_t requestLen() const override { return reqLen; }

    void
    readRequest(uint64_t off, void *dst, uint64_t len) override
    {
        auto *out = static_cast<uint8_t *>(dst);
        uint64_t have = off < snap.size() ? snap.size() - off : 0;
        uint64_t n = std::min(len, have);
        if (n > 0)
            std::memcpy(out, snap.data() + off, n);
        // Beyond the validated snapshot there are no request bytes:
        // zero-fill (deterministically) instead of leaking whatever
        // stale buffer contents the substrate holds there.
        if (n < len)
            std::memset(out + n, 0, len - n);
        // Keep the substrate's charging model: the handler pays for
        // the fetch it would otherwise have issued.
        inner.readRequest(off, scratch(len), len);
    }

    void
    writeRequest(uint64_t off, const void *src, uint64_t len) override
    {
        inner.writeRequest(off, src, len);
        mirror(off, src, len);
    }

    void
    writeReply(uint64_t off, const void *src, uint64_t len) override
    {
        inner.writeReply(off, src, len);
    }

    void setReplyLen(uint64_t len) override { inner.setReplyLen(len); }

    uint64_t
    callService(ServiceId svc, uint64_t opcode, uint64_t off,
                uint64_t len, uint64_t req_len) override
    {
        // Push the validated bytes back into the substrate first:
        // the nested hop must forward what the envelope check
        // approved, not whatever the (possibly mutated since) shared
        // buffer holds right now.
        uint64_t fwd = req_len == 0 ? len : req_len;
        grow(off + fwd);
        inner.writeRequest(off, snap.data() + off, fwd);
        if (inner.failStatus != TransportStatus::Ok) {
            failStatus = inner.failStatus;
            return 0;
        }
        uint64_t rlen = inner.callService(svc, opcode, off, len,
                                          req_len);
        if (inner.failStatus != TransportStatus::Ok) {
            failStatus = inner.failStatus;
            return rlen;
        }
        // The window now holds the callee's reply: refresh the
        // snapshot from the substrate - this is a fetch of *new*
        // content, not a re-fetch of validated request bytes.
        if (rlen > 0) {
            grow(off + rlen);
            inner.readRequest(off, snap.data() + off, rlen);
        }
        return rlen;
    }

    void
    replyFromRequest(uint64_t off, uint64_t len) override
    {
        // Serve the *validated* bytes, not the substrate's: on XPC
        // the seg is still writable by the caller, so the in-place
        // zero-copy reply would re-expose the TOCTOU window this
        // class exists to close. Sealing already pays a read of
        // every reply byte; this trades the zero-copy reply for a
        // validated copy only when the envelope is on.
        grow(off + len);
        inner.writeReply(off, snap.data() + off, len);
        inner.setReplyLen(off + len);
    }

    uint64_t
    callServiceScratch(ServiceId svc, uint64_t opcode, const void *req,
                       uint64_t req_len, void *reply,
                       uint64_t reply_cap) override
    {
        uint64_t r = inner.callServiceScratch(svc, opcode, req,
                                              req_len, reply,
                                              reply_cap);
        if (inner.failStatus != TransportStatus::Ok)
            failStatus = inner.failStatus;
        return r;
    }

    hw::Core &core() override { return inner.core(); }
    kernel::Thread *callerThread() override
    {
        return inner.callerThread();
    }
    uint64_t replyLen() const override { return inner.replyLen(); }
    void
    readReply(uint64_t off, void *dst, uint64_t len) override
    {
        inner.readReply(off, dst, len);
    }

    ServerApi &inner;

  private:
    void
    grow(uint64_t need)
    {
        if (snap.size() < need)
            snap.resize(need, 0);
    }

    void
    mirror(uint64_t off, const void *src, uint64_t len)
    {
        grow(off + len);
        if (len > 0)
            std::memcpy(snap.data() + off, src, len);
    }

    uint8_t *
    scratch(uint64_t len)
    {
        if (bin.size() < len)
            bin.resize(len);
        return bin.data();
    }

    std::vector<uint8_t> snap;
    std::vector<uint8_t> bin;
    uint64_t reqLen;
};

} // namespace

uint64_t
Transport::scratchCall(hw::Core &core, kernel::Thread &caller,
                       bool in_handler, ServiceId svc, uint64_t opcode,
                       const void *req, uint64_t req_len, void *reply,
                       uint64_t reply_cap)
{
    (void)in_handler;
    // A faulted staging copy leaves the previous request in the area:
    // calling would hand the callee stale bytes.
    if (!clientWrite(core, caller, 0, req, req_len))
        return scratchFailed;
    CallResult r = call(core, caller, svc, opcode, req_len,
                        std::max(req_len, reply_cap));
    if (!r.ok)
        return scratchFailed;
    uint64_t rlen = std::min<uint64_t>(r.replyLen, reply_cap);
    if (rlen > 0)
        clientRead(core, caller, 0, reply, rlen);
    return rlen;
}

uint64_t
Transport::negotiatedAppend(ServiceId svc) const
{
    const ServiceDesc &d = describe(svc);
    uint64_t deepest = 0;
    for (ServiceId callee : d.callees)
        deepest = std::max(deepest, negotiatedAppend(callee));
    return d.selfAppendBytes + deepest;
}

ServiceId
Transport::lookup(const std::string &name) const
{
    for (ServiceId id = 0; id < descs.size(); id++) {
        if (descs[id].name == name)
            return id;
    }
    fatal("no service named '%s'", name.c_str());
}

ServiceId
Transport::lookup(const std::string &name,
                  kernel::TenantId tenant) const
{
    for (ServiceId id = 0; id < descs.size(); id++) {
        if (descs[id].name == name && svcTenants[id] == tenant)
            return id;
    }
    fatal("no service named '%s' in tenant %u", name.c_str(),
          unsigned(tenant));
}

kernel::TenantId
Transport::tenantOf(ServiceId svc) const
{
    panic_if(svc >= svcTenants.size(), "no such service %lu",
             (unsigned long)svc);
    return svcTenants[svc];
}

bool
Transport::gateGrant(const kernel::Thread &client, ServiceId svc)
{
    if (client.tenant == tenantOf(svc) ||
        describe(svc).sharedAcrossTenants)
        return true;
    if (enforceTenancy) {
        crossTenantDenied.inc();
        return false;
    }
    // Enforcement off: the grant proceeds, but leave the audit trail
    // the containment suite checks against.
    crossTenantGrants.inc();
    return true;
}

bool
Transport::gateCall(const kernel::Thread &client, ServiceId svc)
{
    if (client.tenant == tenantOf(svc) ||
        describe(svc).sharedAcrossTenants)
        return true;
    if (enforceTenancy) {
        crossTenantDenied.inc();
        return false;
    }
    crossTenantCalls.inc();
    return true;
}

CallResult
Transport::deniedCall()
{
    CallResult res;
    res.ok = false;
    res.status = TransportStatus::NoCapability;
    return countCall(res);
}

uint64_t
Transport::sealRequest(hw::Core &core, kernel::Thread &client,
                       uint64_t req_len, uint64_t *seq_out)
{
    std::vector<uint8_t> buf(req_len);
    if (req_len > 0 &&
        !readStagedRequest(core, client, 0, buf.data(), req_len))
        return sealFailed;
    Envelope env;
    env.len = req_len;
    env.seq = ++envSeq;
    env.crc = crc32(buf.data(), req_len);
    uint8_t raw[Envelope::wireBytes];
    env.encodeTo(raw);
    if (!clientWrite(core, client, req_len, raw, Envelope::wireBytes))
        return sealFailed;
    *seq_out = env.seq;
    return req_len + Envelope::wireBytes;
}

CallResult
Transport::verifySealedReply(hw::Core &core, kernel::Thread &client,
                             uint64_t seq, CallResult res)
{
    if (!res.ok)
        return res;
    uint64_t wire = res.replyLen;
    std::vector<uint8_t> buf;
    bool fetched = false;
    if (wire >= Envelope::wireBytes) {
        buf.resize(wire);
        fetched = clientRead(core, client, 0, buf.data(), wire);
        if (!fetched) {
            // The re-read itself faulted (injected copy fault): that
            // is a copy failure, not evidence of corruption.
            res.ok = false;
            res.status = TransportStatus::CopyFault;
            res.replyLen = 0;
            return res;
        }
    }
    Envelope env;
    bool good =
        fetched &&
        Envelope::decode(buf.data() + wire - Envelope::wireBytes,
                         &env) &&
        env.len == wire - Envelope::wireBytes && env.seq == seq &&
        env.crc == crc32(buf.data(), env.len);
    if (!good) {
        res.ok = false;
        res.status = TransportStatus::IntegrityViolation;
        res.replyLen = 0;
        integrityViolations.inc();
        trace::Tracer::global().instantNow("integrity", "violation", 0,
                                           name());
        return res;
    }
    res.replyLen = env.len;
    return res;
}

void
Transport::flagViolation(ServerApi &api)
{
    integrityViolations.inc();
    trace::Tracer::global().instantNow("integrity", "violation", 0,
                                       name());
    api.fail(TransportStatus::IntegrityViolation);
}

void
Transport::dispatchHandler(ServerApi &api, const ServiceHandler &handler)
{
    bool sealed = envelopeEnabled && sealPending;
    sealPending = false;
    if (!sealed) {
        handler(api);
        return;
    }

    // Copy-then-validate: the one and only fetch of the request.
    uint64_t wire = api.requestLen();
    if (wire < Envelope::wireBytes) {
        flagViolation(api);
        return;
    }
    std::vector<uint8_t> snap(wire);
    api.readRequest(0, snap.data(), wire);
    if (api.failStatus != TransportStatus::Ok)
        return; // the fetch itself aborted (revocation, copy fault)

    Envelope env;
    if (!Envelope::decode(&snap[wire - Envelope::wireBytes], &env) ||
        env.len != wire - Envelope::wireBytes ||
        env.crc != crc32(snap.data(), env.len)) {
        flagViolation(api);
        return;
    }
    uint64_t seq = env.seq;
    snap.resize(env.len);

    SnapshotServerApi vapi(api, std::move(snap));
    handler(vapi);
    if (vapi.failStatus != TransportStatus::Ok) {
        api.fail(vapi.failStatus);
        return;
    }

    // Seal the reply: checksum exactly the bytes the client will
    // receive (read back from the substrate, gaps included) and
    // append the trailer echoing the request's seq.
    uint64_t rlen = api.replyLen();
    std::vector<uint8_t> rep(rlen);
    if (rlen > 0)
        api.readReply(0, rep.data(), rlen);
    if (api.failStatus != TransportStatus::Ok)
        return;
    Envelope seal;
    seal.len = rlen;
    seal.seq = seq;
    seal.crc = crc32(rep.data(), rlen);
    uint8_t raw[Envelope::wireBytes];
    seal.encodeTo(raw);
    api.writeReply(rlen, raw, Envelope::wireBytes);
    api.setReplyLen(rlen + Envelope::wireBytes);
}

const ServiceDesc &
Transport::describe(ServiceId svc) const
{
    panic_if(svc >= descs.size(), "no such service %lu",
             (unsigned long)svc);
    return descs[svc];
}

} // namespace xpc::core
