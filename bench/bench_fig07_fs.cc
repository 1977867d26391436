/**
 * @file
 * Paper Figure 7(a)/(b): file-system read/write throughput vs buffer
 * size for Zircon, Zircon-XPC, seL4-onecopy, seL4-twocopy and
 * seL4-XPC. The paper reports average speedups of 7.8x/3.8x
 * (read, vs Zircon/seL4) and 13.2x/3.0x (write).
 */

#include "bench_util.hh"
#include "sim/logging.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

constexpr uint64_t totalBytes = 256 * 1024;

struct Throughputs
{
    double readMBps = 0;
    double writeMBps = 0;
};

Throughputs
measure(core::SystemFlavor flavor, uint64_t buf_bytes,
        BenchReport *report = nullptr)
{
    const hw::MachineConfig machine =
        (flavor == core::SystemFlavor::Zircon ||
         flavor == core::SystemFlavor::ZirconXpc)
            ? hw::lowRiscKc705()
            : hw::rocketU500();
    FsRig rig(flavor, 4096, &machine);
    hw::Core &core = rig.sys->core(0);
    core::Transport &tr = *rig.rec;
    kernel::Thread &client = *rig.client;
    auto fs = rig.fsrv->id();

    int64_t fd = services::FsServer::clientOpen(tr, core, client, fs,
                                                "/bench.dat", true);
    fatal_if(fd < 0, "open failed");

    std::vector<uint8_t> buf(buf_bytes, 0x42);
    Throughputs out;

    // Write phase.
    Cycles t0 = core.now();
    for (uint64_t off = 0; off < totalBytes; off += buf_bytes) {
        int64_t r = services::FsServer::clientWrite(
            tr, core, client, fs, fd, off, buf.data(), buf_bytes);
        panic_if(r != int64_t(buf_bytes), "short write");
    }
    double secs = machine.cyclesToSec(core.now() - t0);
    out.writeMBps = double(totalBytes) / secs / 1e6;

    // Read phase (server-side caches now warm, like the paper's
    // steady-state runs).
    t0 = core.now();
    for (uint64_t off = 0; off < totalBytes; off += buf_bytes) {
        int64_t r = services::FsServer::clientRead(
            tr, core, client, fs, fd, off, buf.data(), buf_bytes);
        panic_if(r != int64_t(buf_bytes), "short read");
    }
    secs = machine.cyclesToSec(core.now() - t0);
    out.readMBps = double(totalBytes) / secs / 1e6;

    // Fold this run's registry distributions (the kernel/runtime
    // per-span "phases" stats) into the report before the rig dies,
    // so "distributions" carries real percentiles per flavor.
    if (report)
        attachRegistryDistributions(
            *report, rig.sys->stats(),
            std::string(core::systemFlavorName(flavor)));
    return out;
}

const core::SystemFlavor flavors[] = {
    core::SystemFlavor::Zircon,      core::SystemFlavor::ZirconXpc,
    core::SystemFlavor::Sel4OneCopy, core::SystemFlavor::Sel4TwoCopy,
    core::SystemFlavor::Sel4Xpc,
};

void
printTable()
{
    const uint64_t bufs[] = {2048, 4096, 8192, 12288, 16384};

    BenchReport report("fig07_fs");
    banner("Figure 7(a): FS read throughput (MB/s) vs buffer size");
    std::vector<std::string> hdr = {"buffer(B)"};
    for (auto f : flavors)
        hdr.push_back(core::systemFlavorName(f));
    row(hdr, 14);
    std::vector<std::vector<double>> reads, writes;
    for (uint64_t b : bufs) {
        std::vector<std::string> cells = {fmtU(b)};
        std::vector<double> rrow, wrow;
        for (auto f : flavors) {
            // The 8 KiB column doubles as the representative config
            // whose per-span distributions land in the report.
            Throughputs t = measure(f, b, b == 8192 ? &report : nullptr);
            rrow.push_back(t.readMBps);
            wrow.push_back(t.writeMBps);
            cells.push_back(fmt("%.1f", t.readMBps));
            std::string key = std::string(core::systemFlavorName(f)) +
                              "." + fmtU(b) + "B";
            report.metric("read_MBps." + key, t.readMBps);
            report.metric("write_MBps." + key, t.writeMBps);
        }
        reads.push_back(rrow);
        writes.push_back(wrow);
        row(cells, 14);
    }

    banner("Figure 7(b): FS write throughput (MB/s) vs buffer size");
    row(hdr, 14);
    for (size_t i = 0; i < writes.size(); i++) {
        std::vector<std::string> cells = {fmtU(bufs[i])};
        for (double v : writes[i])
            cells.push_back(fmt("%.1f", v));
        row(cells, 14);
    }

    // Average speedups like the paper's summary sentence.
    auto avg_speedup = [&](const std::vector<std::vector<double>> &m,
                           size_t base, size_t fast) {
        double s = 0;
        for (const auto &r : m)
            s += r[fast] / r[base];
        return s / double(m.size());
    };
    banner("Summary (paper: read 7.8x vs Zircon / 3.8x vs seL4; "
           "write 13.2x / 3.0x)");
    row({"read: Zircon-XPC/Zircon",
         fmt("%.1fx", avg_speedup(reads, 0, 1))}, 30);
    row({"read: seL4-XPC/seL4-2copy",
         fmt("%.1fx", avg_speedup(reads, 3, 4))}, 30);
    row({"write: Zircon-XPC/Zircon",
         fmt("%.1fx", avg_speedup(writes, 0, 1))}, 30);
    row({"write: seL4-XPC/seL4-2copy",
         fmt("%.1fx", avg_speedup(writes, 3, 4))}, 30);
    report.metric("speedup.read_zircon", avg_speedup(reads, 0, 1));
    report.metric("speedup.read_sel4", avg_speedup(reads, 3, 4));
    report.metric("speedup.write_zircon", avg_speedup(writes, 0, 1));
    report.metric("speedup.write_sel4", avg_speedup(writes, 3, 4));

    // With XPC_TRACE=1 the trace ring still holds the tail of the
    // last run: fold the per-request critical paths into the report
    // (no-op, and byte-identical output, when tracing is off).
    attachCritPath(report);
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
