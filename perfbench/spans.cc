#include "spans.hh"

namespace perfbench {

using namespace xpc;
using core::ServerApi;
using core::TransportStatus;

uint32_t
SpanRecorder::intern(const std::string &name)
{
    for (size_t i = 0; i < nameTable.size(); i++)
        if (nameTable[i] == name)
            return uint32_t(i);
    nameTable.push_back(name);
    return uint32_t(nameTable.size() - 1);
}

int32_t
SpanRecorder::open(uint32_t name)
{
    Span s;
    s.name = name;
    s.parent = openStack.empty() ? -1 : openStack.back();
    s.op = currentOp;
    s.simStart = core.now().value();
    s.hostStart = hostNs();
    all.push_back(s);
    int32_t id = int32_t(all.size() - 1);
    openStack.push_back(id);
    return id;
}

void
SpanRecorder::close(int32_t id)
{
    Span &s = all[size_t(id)];
    s.hostEnd = hostNs();
    s.simEnd = core.now().value();
    // Scopes close in reverse order of opening. Out-of-order closing
    // would leave the stack as is, and the wrong parent links that
    // follow fail selfTotals()' nesting checks.
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
}

/**
 * The handler's view of one invocation, forwarded to the substrate's
 * ServerApi; nested hops run inside "core.transport" spans. Failure
 * status flows both ways: nested-hop failures become visible to the
 * handler here, and a failure the handler flags is handed back.
 */
class SpanTransport::Proxy : public ServerApi
{
  public:
    Proxy(ServerApi &inner, SpanTransport &owner)
        : inner(inner), owner(owner)
    {
        failStatus = inner.failStatus;
    }

    uint64_t opcode() const override { return inner.opcode(); }
    uint64_t requestLen() const override { return inner.requestLen(); }

    void
    readRequest(uint64_t off, void *dst, uint64_t len) override
    {
        inner.readRequest(off, dst, len);
    }

    void
    writeRequest(uint64_t off, const void *src, uint64_t len) override
    {
        inner.writeRequest(off, src, len);
    }

    void
    writeReply(uint64_t off, const void *src, uint64_t len) override
    {
        inner.writeReply(off, src, len);
    }

    void setReplyLen(uint64_t len) override { inner.setReplyLen(len); }

    uint64_t
    callService(core::ServiceId svc, uint64_t opcode, uint64_t off,
                uint64_t len, uint64_t req_len) override
    {
        SpanScope span(&owner.rec, owner.callName);
        uint64_t rlen = inner.callService(svc, opcode, off, len, req_len);
        settle((req_len == 0 ? len : req_len) + rlen);
        return rlen;
    }

    void
    replyFromRequest(uint64_t off, uint64_t len) override
    {
        inner.replyFromRequest(off, len);
    }

    uint64_t
    callServiceScratch(core::ServiceId svc, uint64_t opcode, const void *req,
                       uint64_t req_len, void *reply,
                       uint64_t reply_cap) override
    {
        SpanScope span(&owner.rec, owner.callName);
        uint64_t rlen = inner.callServiceScratch(svc, opcode, req, req_len,
                                                 reply, reply_cap);
        uint64_t reply_bytes =
            rlen == core::Transport::scratchFailed ? 0 : rlen;
        settle(req_len + reply_bytes);
        return rlen;
    }

    hw::Core &core() override { return inner.core(); }
    kernel::Thread *callerThread() override { return inner.callerThread(); }
    uint64_t replyLen() const override { return inner.replyLen(); }

    void
    readReply(uint64_t off, void *dst, uint64_t len) override
    {
        inner.readReply(off, dst, len);
    }

    /** Hand a failure the handler flagged to the substrate. */
    void
    finish()
    {
        if (failStatus != TransportStatus::Ok &&
            inner.failStatus == TransportStatus::Ok)
            inner.fail(failStatus);
    }

  private:
    ServerApi &inner;
    SpanTransport &owner;

    void
    settle(uint64_t bytes)
    {
        bool ok = inner.failStatus == TransportStatus::Ok;
        if (!ok)
            failStatus = inner.failStatus;
        owner.note(ok, bytes);
    }
};

SpanTransport::SpanTransport(core::Transport &inner, SpanRecorder &rec)
    : inner(inner), rec(rec), callName(rec.intern(callSpan))
{}

void
SpanTransport::note(bool ok, uint64_t bytes)
{
    if (!rec.recording)
        return;
    payloadBytes += bytes;
    if (!ok)
        failedCalls++;
}

core::ServiceId
SpanTransport::registerService(const core::ServiceDesc &desc,
                               core::ServiceHandler handler)
{
    uint32_t span_name = rec.intern("services." + desc.name);
    core::ServiceId id = inner.registerService(
        desc, [this, span_name, h = std::move(handler)](ServerApi &api) {
            SpanScope span(&rec, span_name);
            Proxy proxy(api, *this);
            h(proxy);
            proxy.finish();
        });
    // Keep our descriptor table in step for negotiation and lookup.
    recordDesc(desc);
    return id;
}

void
SpanTransport::connect(kernel::Thread &client, core::ServiceId svc)
{
    inner.connect(client, svc);
}

VAddr
SpanTransport::requestArea(hw::Core &core, kernel::Thread &client,
                           uint64_t len)
{
    return inner.requestArea(core, client, len);
}

bool
SpanTransport::clientWrite(hw::Core &core, kernel::Thread &client,
                           uint64_t off, const void *src, uint64_t len)
{
    return inner.clientWrite(core, client, off, src, len);
}

bool
SpanTransport::clientRead(hw::Core &core, kernel::Thread &client,
                          uint64_t off, void *dst, uint64_t len)
{
    return inner.clientRead(core, client, off, dst, len);
}

core::CallResult
SpanTransport::call(hw::Core &core, kernel::Thread &client,
                    core::ServiceId svc, uint64_t opcode, uint64_t req_len,
                    uint64_t reply_cap)
{
    SpanScope span(&rec, callName);
    core::CallResult r =
        inner.call(core, client, svc, opcode, req_len, reply_cap);
    note(r.ok, req_len + r.replyLen);
    return r;
}

uint64_t
SpanTransport::scratchCall(hw::Core &core, kernel::Thread &caller,
                           bool in_handler, core::ServiceId svc,
                           uint64_t opcode, const void *req,
                           uint64_t req_len, void *reply,
                           uint64_t reply_cap)
{
    SpanScope span(&rec, callName);
    uint64_t rlen = inner.scratchCall(core, caller, in_handler, svc, opcode,
                                      req, req_len, reply, reply_cap);
    bool ok = rlen != scratchFailed;
    note(ok, req_len + (ok ? rlen : 0));
    return rlen;
}

void
SpanTransport::prepareScratch(hw::Core &core, kernel::Thread &server,
                              uint64_t len)
{
    inner.prepareScratch(core, server, len);
}

std::string
selfTotals(const std::vector<Span> &spans, size_t names,
           std::vector<LayerTotals> &out)
{
    out.assign(names, LayerTotals{});
    std::vector<uint64_t> child_sim(spans.size(), 0);
    std::vector<int64_t> child_host(spans.size(), 0);
    // End of the previous sibling under each parent (roots share the
    // trailing slot), to catch overlapping siblings.
    std::vector<uint64_t> last_end(spans.size() + 1, 0);

    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        if (s.hostEnd == 0)
            return "span " + std::to_string(i) + " was never closed";
        if (s.simEnd < s.simStart || s.hostEnd < s.hostStart)
            return "span " + std::to_string(i) + " ends before it starts";
        size_t slot = s.parent < 0 ? spans.size() : size_t(s.parent);
        if (s.simStart < last_end[slot])
            return "span " + std::to_string(i) + " overlaps its sibling";
        last_end[slot] = s.simEnd;
        if (s.parent >= 0) {
            const Span &p = spans[size_t(s.parent)];
            if (s.simStart < p.simStart || s.simEnd > p.simEnd ||
                s.hostStart < p.hostStart || s.hostEnd > p.hostEnd)
                return "span " + std::to_string(i) +
                       " leaves its parent's interval";
            child_sim[size_t(s.parent)] += s.simEnd - s.simStart;
            child_host[size_t(s.parent)] += s.hostEnd - s.hostStart;
        }
    }
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        LayerTotals &t = out[s.name];
        t.spans++;
        t.simSelf += (s.simEnd - s.simStart) - child_sim[i];
        t.hostSelf += (s.hostEnd - s.hostStart) - child_host[i];
    }
    return "";
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans,
           const std::vector<std::string> &names)
{
    os << "id,name,parent,op,sim_start,sim_end,host_start_ns,host_end_ns\n";
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        os << i << ',' << names[s.name] << ',' << s.parent << ',' << s.op
           << ',' << s.simStart << ',' << s.simEnd << ',' << s.hostStart
           << ',' << s.hostEnd << '\n';
    }
}

} // namespace perfbench
