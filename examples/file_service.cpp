/**
 * @file
 * Example: the two-server file-system stack of the paper's section
 * 5.3 - a log-structured xv6fs server backed by a ram-disk server -
 * run twice, over seL4 endpoint IPC and over XPC, with the same
 * service code. Prints what one workload costs on each substrate.
 *
 *   ./build/examples/file_service
 *
 * With XPC_TRACE=1 the XPC run also traces one 4KB read through the
 * app -> xv6fs -> ramdisk chain (the Figure 7 shape), exports it as
 * fs_chain_trace.json and prints its critical path (sim/critpath.hh)
 * and the top view.
 */

#include <cstdio>
#include <vector>

#include "core/system.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "sim/critpath.hh"
#include "sim/trace.hh"

using namespace xpc;

namespace {

struct RunResult
{
    uint64_t cycles = 0;
    uint64_t diskWrites = 0;
};

RunResult
runWorkload(core::SystemFlavor flavor)
{
    core::SystemOptions opts;
    opts.flavor = flavor;
    core::System sys(opts);
    core::Transport &tr = sys.transport();

    // Wire the stack: ramdisk server, FS server on top, one client.
    kernel::Thread &disk_t = sys.spawn("ramdisk");
    kernel::Thread &fs_t = sys.spawn("xv6fs");
    kernel::Thread &client = sys.spawn("app");

    services::BlockDeviceServer disk(tr, disk_t, 2048);
    tr.connect(fs_t, disk.id());
    services::FsServer fs(tr, fs_t, disk.id(), 2048);
    tr.connect(client, fs.id());

    hw::Core &core = sys.core(0);

    // The workload: create a log file, append records, read it back.
    int64_t fd = services::FsServer::clientOpen(tr, core, client,
                                                fs.id(), "/app.log",
                                                true);
    if (fd < 0) {
        std::fprintf(stderr, "open failed: %lld\n", (long long)fd);
        return {};
    }

    Cycles t0 = core.now();
    std::vector<uint8_t> record(512);
    for (int i = 0; i < 64; i++) {
        for (auto &b : record)
            b = uint8_t(i);
        services::FsServer::clientWrite(tr, core, client, fs.id(), fd,
                                        uint64_t(i) * record.size(),
                                        record.data(), record.size());
    }
    std::vector<uint8_t> all(64 * 512);
    services::FsServer::clientRead(tr, core, client, fs.id(), fd, 0,
                                   all.data(), all.size());
    services::FsServer::clientClose(tr, core, client, fs.id(), fd);

    // Verify the data survived the journaled write path.
    for (int i = 0; i < 64; i++) {
        if (all[uint64_t(i) * 512] != uint8_t(i)) {
            std::fprintf(stderr, "data mismatch at record %d\n", i);
            return {};
        }
    }

    RunResult r;
    r.cycles = (core.now() - t0).value();
    r.diskWrites = disk.writes.value();

    // After the measured workload: trace one warm 4KB read through
    // the chain (the per-request view of Figure 7's read path).
    // Running it outside the timed window keeps the printed cycle
    // numbers identical whether tracing is on or not.
    trace::Tracer &tracer = sys.machine().tracer();
    if (flavor == core::SystemFlavor::Sel4Xpc && tracer.enabled()) {
        int64_t tfd = services::FsServer::clientOpen(
            tr, core, client, fs.id(), "/app.log", false);
        if (tfd >= 0) {
            tracer.clear();
            std::vector<uint8_t> page(4096);
            services::FsServer::clientRead(tr, core, client, fs.id(),
                                           tfd, 0, page.data(),
                                           page.size());
            const char *path = "fs_chain_trace.json";
            if (tracer.exportChromeJson(path))
                std::printf("\n%zu trace events -> %s "
                            "(open in ui.perfetto.dev)\n\n",
                            tracer.size(), path);
            auto reports = critpath::analyze(tracer);
            for (const auto &rep : reports)
                std::printf(
                    "%s\n",
                    critpath::formatReport(rep, tracer).c_str());
            std::printf("%s\n", critpath::formatTop(reports).c_str());
            services::FsServer::clientClose(tr, core, client, fs.id(),
                                            tfd);
        }
    }
    return r;
}

} // namespace

int
main()
{
    std::printf("two-server file system: 64 x 512B journaled "
                "appends + one 32KB read\n\n");
    std::printf("%-14s %-16s %-12s\n", "substrate", "cycles",
                "disk writes");
    RunResult sel4 = runWorkload(core::SystemFlavor::Sel4TwoCopy);
    std::printf("%-14s %-16llu %-12llu\n", "seL4",
                (unsigned long long)sel4.cycles,
                (unsigned long long)sel4.diskWrites);
    RunResult xpc = runWorkload(core::SystemFlavor::Sel4Xpc);
    std::printf("%-14s %-16llu %-12llu\n", "seL4-XPC",
                (unsigned long long)xpc.cycles,
                (unsigned long long)xpc.diskWrites);
    if (xpc.cycles > 0) {
        std::printf("\nXPC speedup: %.2fx with identical service "
                    "code and identical disk traffic\n",
                    double(sel4.cycles) / double(xpc.cycles));
    }
    return 0;
}
