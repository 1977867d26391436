/**
 * @file
 * Bench-side tracing for the YCSB workloads: an in-memory span
 * recorder and a Transport decorator that opens a span around every
 * call into the IPC layer and every service handler.
 *
 * The decorator stands where bench rigs put core::RecordingTransport.
 * It forwards everything to the system's transport and only reads the
 * simulated clock, so a traced run must spend exactly the simulated
 * cycles of an untraced one; the extra work is host time only.
 * Handlers are wrapped with a ServerApi proxy, so nested
 * callService/callServiceScratch hops become spans as well.
 *
 * A span's self time is its duration minus the durations of its
 * children. Because spans nest strictly on one simulated core, the
 * self cycles of all spans of an op sum exactly to the op's cycles.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <ostream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/transport.hh"

namespace perfbench {

/** Spans kept in memory until the run ends. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(xpc::hw::Core &core) : core(core) {}

    /** Index of span name @p name (added on first use). */
    uint32_t intern(const std::string &name);

    /** Spans are recorded only while this is set. */
    bool recording = false;
    /** Op id stamped on spans opened from now on. */
    uint32_t currentOp = 0;

    /** Open a span nested in the innermost open one. @return its id. */
    int32_t open(uint32_t name);
    /** Close span @p id (the innermost open one). */
    void close(int32_t id);

    std::vector<Span> &spans() { return all; }
    const std::vector<std::string> &names() const { return nameTable; }

  private:
    xpc::hw::Core &core;
    std::vector<Span> all;
    std::vector<int32_t> openStack;
    std::vector<std::string> nameTable;
};

/** RAII span; a null recorder or one that is not recording is a no-op. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, uint32_t name)
        : rec(rec), id(rec && rec->recording ? rec->open(name) : -1)
    {}
    ~SpanScope()
    {
        if (id >= 0)
            rec->close(id);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec;
    int32_t id;
};

/** Pass-through transport that records a span per call and handler. */
class SpanTransport : public xpc::core::Transport
{
  public:
    /** Span name of every call into the IPC layer. */
    static constexpr const char *callSpan = "core.transport";

    SpanTransport(xpc::core::Transport &inner, SpanRecorder &rec);

    const char *name() const override { return inner.name(); }
    xpc::kernel::Kernel &kernelRef() override { return inner.kernelRef(); }

    /** Registers a wrapper that runs @p handler inside a
     *  "services.<name>" span and through a span-making proxy. */
    xpc::core::ServiceId
    registerService(const xpc::core::ServiceDesc &desc,
                    xpc::core::ServiceHandler handler) override;

    void connect(xpc::kernel::Thread &client,
                 xpc::core::ServiceId svc) override;
    xpc::VAddr requestArea(xpc::hw::Core &core, xpc::kernel::Thread &client,
                           uint64_t len) override;
    bool clientWrite(xpc::hw::Core &core, xpc::kernel::Thread &client,
                     uint64_t off, const void *src, uint64_t len) override;
    bool clientRead(xpc::hw::Core &core, xpc::kernel::Thread &client,
                    uint64_t off, void *dst, uint64_t len) override;
    xpc::core::CallResult call(xpc::hw::Core &core,
                               xpc::kernel::Thread &client,
                               xpc::core::ServiceId svc, uint64_t opcode,
                               uint64_t req_len,
                               uint64_t reply_cap) override;
    uint64_t scratchCall(xpc::hw::Core &core, xpc::kernel::Thread &caller,
                         bool in_handler, xpc::core::ServiceId svc,
                         uint64_t opcode, const void *req, uint64_t req_len,
                         void *reply, uint64_t reply_cap) override;
    void prepareScratch(xpc::hw::Core &core, xpc::kernel::Thread &server,
                        uint64_t len) override;

    /** Calls and nested hops that failed, while recording. */
    uint64_t failedCalls = 0;
    /** Request plus reply payload bytes, while recording. */
    uint64_t payloadBytes = 0;

  private:
    class Proxy;

    xpc::core::Transport &inner;
    SpanRecorder &rec;
    uint32_t callName;

    void note(bool ok, uint64_t bytes);
};

/** Span totals of one span name. */
struct LayerTotals
{
    uint64_t spans = 0;
    uint64_t simSelf = 0;
    int64_t hostSelf = 0;
};

/**
 * Self time per span name (indexed like the recorder's names).
 * @return an error text when the spans do not nest properly (a child
 *         outside its parent, overlapping siblings, an unclosed span),
 *         else "".
 */
std::string selfTotals(const std::vector<Span> &spans, size_t names,
                       std::vector<LayerTotals> &out);

/** Write @p spans as CSV, one span per line, for offline inspection. */
void writeSpans(std::ostream &os, const std::vector<Span> &spans,
                const std::vector<std::string> &names);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
