/**
 * @file
 * Paper Figure 7(a)/(b): file-system read/write throughput vs buffer
 * size for Zircon, Zircon-XPC, seL4-onecopy, seL4-twocopy and
 * seL4-XPC. The paper reports average speedups of 7.8x/3.8x
 * (read, vs Zircon/seL4) and 13.2x/3.0x (write).
 */

#include <tuple>

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

constexpr uint64_t totalBytes = 256 * 1024;

struct Throughputs
{
    double readMBps = 0;
    double writeMBps = 0;
};

/** One run; @p dists and @p critpaths (null = none) take its
 *  registry distributions and its traced critical paths. */
Throughputs
measure(core::SystemFlavor flavor, uint64_t buf_bytes, BenchReport *dists,
        BenchReport *critpaths)
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
    if (dists)
        attachRegistryDistributions(
            *dists, rig.sys->stats(),
            std::string(core::systemFlavorName(flavor)));
    // With XPC_TRACE=1 the run's trace ring still holds its tail: fold
    // its per-request critical paths into the report before the rig
    // dies (no-op, and byte-identical output, when tracing is off).
    if (critpaths)
        attachCritPath(*critpaths, rig.sys->machine().tracer());
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
    auto table = [&](const char *caption, const char *what) {
        std::vector<Col> cols = {{"buffer(B)"}};
        for (auto f : flavors)
            cols.push_back({core::systemFlavorName(f), "%.1f",
                            std::string(what) + "." +
                                core::systemFlavorName(f)});
        return Table(report, caption, cols);
    };
    Table reads = table(
        "Figure 7(a): FS read throughput (MB/s) vs buffer size",
        "read_MBps");
    Table writes = table(
        "Figure 7(b): FS write throughput (MB/s) vs buffer size",
        "write_MBps");
    // Summed speedups of the paper's summary sentence: read vs Zircon,
    // read vs seL4, write vs Zircon, write vs seL4 (flavor order:
    // Zircon, Zircon-XPC, 1copy, 2copy, seL4-XPC).
    double speedup[4] = {};
    for (uint64_t b : bufs) {
        std::vector<Cell> rrow, wrow;
        std::vector<Throughputs> t;
        for (auto f : flavors) {
            // The 8 KiB column doubles as the representative config
            // whose per-span distributions land in the report.
            bool last = b == bufs[std::size(bufs) - 1] &&
                        f == flavors[std::size(flavors) - 1];
            t.push_back(measure(f, b, b == 8192 ? &report : nullptr,
                                last ? &report : nullptr));
            rrow.push_back(t.back().readMBps);
            wrow.push_back(t.back().writeMBps);
        }
        speedup[0] += t[1].readMBps / t[0].readMBps;
        speedup[1] += t[4].readMBps / t[3].readMBps;
        speedup[2] += t[1].writeMBps / t[0].writeMBps;
        speedup[3] += t[4].writeMBps / t[3].writeMBps;
        std::string sz = std::to_string(b) + "B";
        reads.row(std::to_string(b), sz, rrow);
        writes.row(std::to_string(b), sz, wrow);
    }
    reads.print();
    writes.print();

    Table summary(report,
                  "Summary (paper: read 7.8x vs Zircon / 3.8x vs seL4; "
                  "write 13.2x / 3.0x)",
                  {{""}, {"", "%.1fx", "speedup"}});
    const double n = double(std::size(bufs));
    summary.row("read: Zircon-XPC/Zircon", "read_zircon", {speedup[0] / n});
    summary.row("read: seL4-XPC/seL4-2copy", "read_sel4",
                {speedup[1] / n});
    summary.row("write: Zircon-XPC/Zircon", "write_zircon",
                {speedup[2] / n});
    summary.row("write: seL4-XPC/seL4-2copy", "write_sel4",
                {speedup[3] / n});
    summary.print();

    const core::SystemFlavor order[][2] = {
        {flavors[0], flavors[1]}, {flavors[0], flavors[3]},
        {flavors[3], flavors[2]}, {flavors[2], flavors[4]}};
    for (const char *what : {"read_MBps.", "write_MBps."})
        for (uint64_t b : bufs)
            for (const auto &[slow, fast] : order)
                report.less(what + std::string(core::systemFlavorName(slow)) +
                                "." + std::to_string(b) + "B",
                            what + std::string(core::systemFlavorName(fast)) +
                                "." + std::to_string(b) + "B");
    const char *ramdisk =
        "the ramdisk's per-block memory traffic, the same on every "
        "flavor, is a larger share of the write path than in the "
        "authors' setup";
    const std::tuple<const char *, double, const char *> averages[] = {
        {"read_zircon", 7.8, ""},
        {"read_sel4", 3.8, ""},
        {"write_zircon", 13.2, ramdisk},
        {"write_sel4", 3.0, ramdisk}};
    for (const auto &[key, paper, why] : averages) {
        report.metric(std::string("paper.speedup.") + key, paper);
        report.near(std::string("speedup.") + key, 0.15).deviation = why;
    }
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
