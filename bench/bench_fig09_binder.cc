/**
 * @file
 * Paper Figure 9: Android Binder latency for the window-manager /
 * surface-compositor scenario.
 *
 *  (a) payload in the Binder transaction buffer, 2K-16K:
 *      Binder 378.4us -> 878us; Binder-XPC 8.2us -> 29us
 *      (46.2x -> 30.2x).
 *  (b) payload in ashmem, 4K-32M:
 *      Binder 0.5ms -> 233.2ms; Binder-XPC 9.3us -> 81.8ms
 *      (54.2x -> 2.8x); Ashmem-XPC 0.3ms -> 82.0ms (1.6x -> 2.8x).
 */

#include <tuple>

#include "bench_util.hh"
#include "binder/binder.hh"

using namespace xpc;
using namespace xpc::bench;
using namespace xpc::binder;

namespace {

struct Rig
{
    std::unique_ptr<core::System> sys;
    std::unique_ptr<BinderSystem> binder;
    kernel::Thread *wm = nullptr;     // window manager (server)
    kernel::Thread *comp = nullptr;   // surface compositor (client)
    uint64_t handle = 0;

    explicit Rig(BinderMode mode)
    {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        sys = std::make_unique<core::System>(opts);
        binder = std::make_unique<BinderSystem>(sys->kern(),
                                                &sys->runtime(), mode);
        wm = &sys->spawn("window-manager");
        comp = &sys->spawn("compositor");
        binder->addService("window", *wm, [this](BinderTxn &txn) {
            // The window manager reads the surface and "draws" it.
            if (txn.code() == 1) {
                txn.data().readBlob();
            } else {
                uint64_t fd = txn.data().readFileDescriptor();
                int64_t size = txn.data().readInt64();
                static std::vector<uint8_t> surface;
                surface.resize(size_t(size));
                txn.readAshmem(AshmemRegion{fd, uint64_t(size)}, 0,
                               surface.data(), uint64_t(size));
            }
            txn.reply().writeInt32(0);
        });
        handle = binder->getService(*comp, "window");
    }
};

/** Buffer-mode latency in microseconds (data prep included, as the
 *  paper's latency does). */
double
bufferLatencyUs(BinderMode mode, uint64_t bytes)
{
    Rig rig(mode);
    hw::Core &core = rig.sys->core(0);
    std::vector<uint8_t> surface(bytes, 0x33);
    double us = 0;
    const int iters = 4;
    for (int i = 0; i < iters + 1; i++) {
        Cycles t0 = core.now();
        Parcel data;
        data.writeBlob(surface.data(), surface.size());
        auto out = rig.binder->transact(core, *rig.comp, rig.handle,
                                        1, data);
        panic_if(!out.ok, "transact failed");
        if (i > 0) { // skip the cold first call
            us += rig.sys->machine().config().cyclesToUsec(
                core.now() - t0);
        }
    }
    return us / iters;
}

/** Ashmem-mode latency in milliseconds. */
double
ashmemLatencyMs(BinderMode mode, uint64_t bytes)
{
    Rig rig(mode);
    hw::Core &core = rig.sys->core(0);
    AshmemRegion region =
        rig.binder->ashmemCreate(core, *rig.comp, bytes);
    std::vector<uint8_t> surface(bytes, 0x44);

    double ms = 0;
    const int iters = 2;
    for (int i = 0; i < iters + 1; i++) {
        Cycles t0 = core.now();
        // Data preparation: the compositor renders into the ashmem.
        rig.binder->ashmemWrite(core, region, 0, surface.data(),
                                bytes);
        Parcel data;
        data.writeFileDescriptor(region.fd);
        data.writeInt64(int64_t(bytes));
        auto out = rig.binder->transact(core, *rig.comp, rig.handle,
                                        2, data);
        panic_if(!out.ok, "transact failed");
        if (i > 0) {
            ms += rig.sys->machine().config().cyclesToUsec(
                      core.now() - t0) /
                  1000.0;
        }
    }
    return ms / iters;
}

void
printTables()
{
    BenchReport report("fig09_binder");
    Table a(report,
            "Figure 9(a): Binder latency, transaction buffer "
            "(us; paper: 378->878 baseline, 8.2->29 XPC)",
            {{"bytes"},
             {"Binder(us)", "%.1f", "buffer_us.binder"},
             {"Binder-XPC(us)", "%.1f", "buffer_us.binder_xpc"},
             {"speedup", "%.1fx", "buffer_speedup"}});
    for (uint64_t bytes : {2048ul, 4096ul, 8192ul, 16384ul}) {
        double base = bufferLatencyUs(BinderMode::Baseline, bytes);
        double fast = bufferLatencyUs(BinderMode::XpcCall, bytes);
        a.row(std::to_string(bytes), std::to_string(bytes) + "B",
              {base, fast, base / fast});
        report.less("buffer_us.binder_xpc." + std::to_string(bytes) + "B",
                    "buffer_us.binder." + std::to_string(bytes) + "B");
    }
    a.print();

    Table b(report,
            "Figure 9(b): Binder latency, ashmem "
            "(ms; paper: 0.5->233 baseline, 54.2x->2.8x XPC, "
            "1.6x->2.8x Ashmem-XPC)",
            {{"bytes"},
             {"Binder(ms)", "%.3f", "ashmem_ms.binder"},
             {"Binder-XPC", "%.3f", "ashmem_ms.binder_xpc"},
             {"speedup", "%.1fx", "ashmem_speedup.binder_xpc"},
             {"Ashmem-XPC", "%.3f", "ashmem_ms.ashmem_xpc"},
             {"speedup", "%.1fx", "ashmem_speedup.ashmem_xpc"}});
    for (uint64_t bytes :
         {4096ul, 65536ul, 1048576ul, 8388608ul, 33554432ul}) {
        double base = ashmemLatencyMs(BinderMode::Baseline, bytes);
        double fast = ashmemLatencyMs(BinderMode::XpcCall, bytes);
        double ashx = ashmemLatencyMs(BinderMode::XpcAshmem, bytes);
        std::string sz = "." + std::to_string(bytes) + "B";
        b.row(std::to_string(bytes), std::to_string(bytes) + "B",
              {base, fast, base / fast, ashx, base / ashx});
        report.less("ashmem_ms.binder_xpc" + sz, "ashmem_ms.binder" + sz);
        report.less("ashmem_ms.ashmem_xpc" + sz, "ashmem_ms.binder" + sz);
    }
    b.print();

    // The crossover: at 4 KiB only the control path matters; with
    // size the defensive copy dominates both XPC variants.
    report.less("buffer_speedup.16384B", "buffer_speedup.2048B");
    report.less("ashmem_ms.binder_xpc.4096B", "ashmem_ms.ashmem_xpc.4096B");
    report.less("ashmem_speedup.binder_xpc.33554432B",
                "ashmem_speedup.binder_xpc.4096B");
    report.less("ashmem_speedup.ashmem_xpc.4096B",
                "ashmem_speedup.ashmem_xpc.33554432B");
    const char *driver = "the baseline driver model is faster than "
                         "Android's measured stack, compressing the "
                         "ratio";
    const char *copies = "at 32 MiB both XPC variants converge to this "
                         "model's copy-count ratio, 2";
    const std::tuple<const char *, double, const char *> paper[] = {
        {"buffer_speedup.2048B", 46.2, driver},
        {"buffer_speedup.16384B", 30.2, driver},
        {"ashmem_speedup.binder_xpc.4096B", 54.2, driver},
        {"ashmem_speedup.binder_xpc.33554432B", 2.8, copies},
        {"ashmem_speedup.ashmem_xpc.4096B", 1.6, driver},
        {"ashmem_speedup.ashmem_xpc.33554432B", 2.8, copies}};
    for (const auto &[key, value, why] : paper) {
        report.metric("paper." + std::string(key), value);
        report.near(key, 0.15).deviation = why;
    }
}

} // namespace

int
main()
{
    printTables();
    return 0;
}
