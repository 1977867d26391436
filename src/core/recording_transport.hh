/**
 * @file
 * A decorator that forwards to an underlying transport while
 * accounting every call's latency, handler time and message size -
 * the instrumentation behind the paper's Figure 1 (share of CPU time
 * spent in IPC, and the CDF of IPC time by message length). It keeps
 * aggregates only, never one record per call, so its memory does not
 * grow with the number of calls.
 */

#ifndef XPC_CORE_RECORDING_TRANSPORT_HH
#define XPC_CORE_RECORDING_TRANSPORT_HH

#include <algorithm>

#include "core/transport.hh"
#include "sim/stats.hh"

namespace xpc::core {

/** Recording pass-through transport. */
class RecordingTransport : public Transport
{
  public:
    explicit RecordingTransport(Transport &inner) : inner(inner) {}

    const char *name() const override { return inner.name(); }
    kernel::Kernel &kernelRef() override { return inner.kernelRef(); }

    ServiceId
    registerService(const ServiceDesc &desc,
                    ServiceHandler handler) override
    {
        ServiceId id = inner.registerService(desc, std::move(handler));
        // Keep our descriptor table in step for negotiation/lookup.
        ServiceId mine = recordDesc(desc);
        (void)mine;
        return id;
    }

    void
    connect(kernel::Thread &client, ServiceId svc) override
    {
        inner.connect(client, svc);
    }

    VAddr
    requestArea(hw::Core &core, kernel::Thread &client,
                uint64_t len) override
    {
        return inner.requestArea(core, client, len);
    }

    bool
    clientWrite(hw::Core &core, kernel::Thread &client, uint64_t off,
                const void *src, uint64_t len) override
    {
        return inner.clientWrite(core, client, off, src, len);
    }

    bool
    clientRead(hw::Core &core, kernel::Thread &client, uint64_t off,
               void *dst, uint64_t len) override
    {
        return inner.clientRead(core, client, off, dst, len);
    }

    CallResult
    call(hw::Core &core, kernel::Thread &client, ServiceId svc,
         uint64_t opcode, uint64_t req_len, uint64_t reply_cap) override
    {
        CallResult r = inner.call(core, client, svc, opcode, req_len,
                                  reply_cap);
        note(req_len + r.replyLen, r);
        return r;
    }

    uint64_t
    scratchCall(hw::Core &core, kernel::Thread &caller, bool in_handler,
                ServiceId svc, uint64_t opcode, const void *req,
                uint64_t req_len, void *reply,
                uint64_t reply_cap) override
    {
        Cycles t0 = core.now();
        uint64_t rlen = inner.scratchCall(core, caller, in_handler,
                                          svc, opcode, req, req_len,
                                          reply, reply_cap);
        if (rlen == scratchFailed)
            return rlen;
        CallResult synth;
        synth.roundTrip = core.now() - t0;
        synth.replyLen = rlen;
        // Handler time is not plumbed through scratchCall; treat the
        // whole thing as IPC (slightly conservative).
        note(req_len + rlen, synth);
        return rlen;
    }

    void
    prepareScratch(hw::Core &core, kernel::Thread &server,
                   uint64_t len) override
    {
        inner.prepareScratch(core, server, len);
    }

    /// @name Accumulated statistics.
    /// @{
    uint64_t calls = 0;
    uint64_t totalBytes = 0;
    uint64_t totalRoundTrip = 0;
    uint64_t totalHandler = 0;
    /** The cheapest call's IPC overhead (0 before any call). */
    uint64_t minOverhead = 0;
    /** IPC overhead cycles keyed by request + reply payload bytes. */
    WeightedCdf overheadByBytes;

    /** Cycles of pure IPC overhead (round trips minus handlers). */
    uint64_t
    ipcOverheadCycles() const
    {
        return totalRoundTrip - totalHandler;
    }

    /** IPC overhead above the cheapest call's, summed over calls. */
    uint64_t
    transferCycles() const
    {
        return ipcOverheadCycles() - calls * minOverhead;
    }

    void
    reset()
    {
        calls = 0;
        totalBytes = 0;
        totalRoundTrip = 0;
        totalHandler = 0;
        minOverhead = 0;
        overheadByBytes.reset();
    }
    /// @}

  private:
    Transport &inner;

    void
    note(uint64_t bytes, const CallResult &r)
    {
        uint64_t overhead = r.roundTrip.value() - r.handlerCycles.value();
        minOverhead = calls ? std::min(minOverhead, overhead) : overhead;
        calls++;
        totalBytes += bytes;
        totalRoundTrip += r.roundTrip.value();
        totalHandler += r.handlerCycles.value();
        overheadByBytes.add(bytes, double(overhead));
    }
};

} // namespace xpc::core

#endif // XPC_CORE_RECORDING_TRANSPORT_HH
