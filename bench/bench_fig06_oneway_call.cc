/**
 * @file
 * Paper Figure 6: one-way call latency (client invokes -> server
 * sees the request) vs message size, same-core and cross-core, for
 * seL4 and seL4-XPC. The paper reports 5-37x same-core speedups and
 * 81-141x cross-core (XPC's migrating threads make the cross-core
 * case identical to the same-core one).
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

const uint64_t sizes[] = {0,    64,   128,  256,   512,   1024,
                          2048, 4096, 8192, 16384, 32768};

uint64_t
measureOneWay(core::SystemFlavor flavor, uint64_t bytes,
              bool cross_core)
{
    EchoRig rig(flavor, nullptr, cross_core ? 1 : 0);
    core::CallResult r;
    for (int i = 0; i < 6; i++)
        r = rig.call(bytes);
    return r.oneWay.value();
}

void
printTable()
{
    BenchReport report("fig06_oneway_call");
    banner("Figure 6: one-way call latency vs message size (cycles)");
    row({"size(B)", "seL4 same", "XPC same", "speedup", "seL4 cross",
         "XPC cross", "speedup"}, 12);
    for (uint64_t bytes : sizes) {
        uint64_t sel4_same =
            measureOneWay(core::SystemFlavor::Sel4TwoCopy, bytes,
                          false);
        uint64_t xpc_same =
            measureOneWay(core::SystemFlavor::Sel4Xpc, bytes, false);
        uint64_t sel4_cross =
            measureOneWay(core::SystemFlavor::Sel4TwoCopy, bytes,
                          true);
        // XPC cross-core: the migrating-thread model runs the server
        // on the client's core, so the path is the same-core path.
        uint64_t xpc_cross = xpc_same;
        row({fmtU(bytes), fmtU(sel4_same), fmtU(xpc_same),
             fmt("%.1fx", double(sel4_same) / double(xpc_same)),
             fmtU(sel4_cross), fmtU(xpc_cross),
             fmt("%.1fx", double(sel4_cross) / double(xpc_cross))},
            12);
        std::string sz = fmtU(bytes) + "B";
        report.metric("sel4_same." + sz, double(sel4_same));
        report.metric("xpc_same." + sz, double(xpc_same));
        report.metric("sel4_cross." + sz, double(sel4_cross));
    }
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
