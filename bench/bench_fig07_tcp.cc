/**
 * @file
 * Paper Figure 7(c): TCP throughput over the netstack + loopback
 * device servers vs send-buffer size, Zircon vs Zircon-XPC. The
 * paper reports ~6x on average, up to 8x at small buffers, with the
 * gap narrowing as batching amortizes the IPC.
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

constexpr uint64_t totalBytes = 128 * 1024;

double
measure(core::SystemFlavor flavor, uint64_t buf_bytes)
{
    NetRig rig(flavor);
    hw::Core &core = rig.sys->core(0);
    core::Transport &tr = rig.sys->transport();
    kernel::Thread &client = *rig.client;
    auto net = rig.net->id();

    std::vector<uint8_t> buf(buf_bytes, 0x17);
    std::vector<uint8_t> drain(64 * 1024);

    Cycles t0 = core.now();
    uint64_t sent = 0;
    while (sent < totalBytes) {
        int64_t r = services::NetStackServer::clientSend(
            tr, core, client, net, rig.cliSock, buf.data(),
            buf_bytes);
        panic_if(r != int64_t(buf_bytes), "short send");
        sent += buf_bytes;
        // Drain the peer periodically so buffers stay bounded.
        if (sent % (16 * 1024) == 0) {
            services::NetStackServer::clientRecv(
                tr, core, client, net, rig.srvSock, drain.data(),
                drain.size());
        }
    }
    double secs =
        rig.sys->machine().config().cyclesToSec(core.now() - t0);
    return double(sent) / secs / 1e6;
}

void
printTable()
{
    BenchReport report("fig07_tcp");
    Table t(report,
            "Figure 7(c): TCP throughput (MB/s) vs buffer size "
            "(paper: Zircon-XPC ~6x Zircon on average)",
            {{"buffer(B)"},
             {"Zircon", "%.2f", "zircon_MBps"},
             {"Zircon-XPC", "%.2f", "zircon_xpc_MBps"},
             {"speedup", "%.1fx", "speedup"}});
    const uint64_t bufs[] = {64, 128, 256, 512, 1024, 2048, 4096};
    double sum = 0;
    for (uint64_t b : bufs) {
        double z = measure(core::SystemFlavor::Zircon, b);
        double x = measure(core::SystemFlavor::ZirconXpc, b);
        sum += x / z;
        t.row(std::to_string(b), std::to_string(b) + "B", {z, x, x / z});
    }
    t.row("average", {"", "", sum / std::size(bufs)});
    t.print();

    for (uint64_t b : bufs)
        report.less("zircon_MBps." + std::to_string(b) + "B",
                    "zircon_xpc_MBps." + std::to_string(b) + "B");
    report.metric("paper.speedup.average", 6);
    report.near("speedup.average", 0.15);
    report.atMost("speedup.64B", 8);
    report.less("speedup.4096B", "speedup.64B");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
