/**
 * @file
 * Observability tour: trace one xcall and dump the stat registry.
 *
 * Enables the cycle-keyed tracer, performs a single cross-process
 * call on the XPC fast path, then exports the event stream as Chrome
 * trace_event JSON (trace.json - load it in ui.perfetto.dev or
 * chrome://tracing) and prints the hierarchical stat registry. The
 * trace shows the paper's fast-path phases as nested spans:
 * trampoline and xcall (Figure 5) around the handler, xret on the
 * way back. Build & run:
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/trace_xcall
 */

#include <cstdio>
#include <iostream>

#include "core/system.hh"
#include "sim/critpath.hh"
#include "sim/trace.hh"

using namespace xpc;

int
main()
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    core::System sys(opts);
    // Normally XPC_TRACE=1 in the environment does this; the example
    // turns the system's tracer on explicitly so it always produces a
    // trace.
    trace::Tracer &tracer = sys.machine().tracer();
    tracer.setEnabled(true);
    core::XpcRuntime &rt = sys.runtime();
    hw::Core &core = sys.core(0);

    kernel::Thread &server = sys.spawn("echo-server");
    uint64_t entry_id = rt.registerEntry(
        server, server,
        [](core::XpcServerCall &call) {
            call.setReplyLen(call.requestLen());
        },
        /*max_xpc_context=*/4);

    kernel::Thread &client = sys.spawn("client");
    sys.manager().grantXcallCap(server, client, entry_id);
    rt.allocRelayMem(core, client, 4096);

    // Trace exactly one call: drop the setup events first.
    tracer.clear();
    core::XpcCallOutcome out = rt.call(core, client, entry_id, 0, 64);
    if (!out.ok) {
        std::fprintf(stderr, "xpc_call failed: %s\n",
                     engine::xpcExceptionName(out.exc));
        return 1;
    }

    const char *path = "trace.json";
    if (!tracer.exportChromeJson(path)) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::printf("one xcall: %llu cycles round trip (one-way %llu)\n",
                (unsigned long long)out.roundTrip.value(),
                (unsigned long long)out.oneWay.value());
    std::printf("%zu trace events -> %s "
                "(open in ui.perfetto.dev)\n",
                tracer.size(), path);

    // The same trace, read back as a per-request critical path: every
    // cycle of the round trip attributed to the innermost span.
    auto reports = critpath::analyze(tracer);
    std::printf("\n");
    for (const auto &r : reports)
        std::printf("%s", critpath::formatReport(r, tracer).c_str());

    std::printf("\nstat registry after the call:\n");
    sys.stats().dumpJson(std::cout);
    std::cout << "\n";
    return 0;
}
