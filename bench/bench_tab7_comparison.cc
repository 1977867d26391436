/**
 * @file
 * Paper Table 7: comparison of IPC mechanisms. The qualitative
 * columns restate the paper's taxonomy for the systems this
 * repository implements; the measured column is a live round-trip
 * measurement of each mechanism on this simulator (4 KiB message,
 * warm path), so the taxonomy is backed by running code.
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

uint64_t
roundTrip(core::SystemFlavor flavor, uint64_t bytes)
{
    EchoRig rig(flavor);
    core::CallResult r;
    for (int i = 0; i < 5; i++)
        r = rig.call(bytes);
    return r.roundTrip.value();
}

void
printTable()
{
    BenchReport report("tab7_comparison");
    Table t(report,
            "Table 7: IPC mechanism comparison (qualitative columns "
            "from the paper; measured 4KiB round trip from this "
            "simulator)",
            {{"System"},
             {"w/o trap"},
             {"w/o sched"},
             {"TOCTTOU-safe"},
             {"handover"},
             {"copies"},
             {"measured(cyc)", "%.0f", "round_trip_4KB"}});

    struct Row
    {
        const char *name;
        core::SystemFlavor flavor;
        const char *noTrap, *noSched, *safe, *handover, *copies;
    };
    const Row rows[] = {
        {"Mach-like(Zircon)", core::SystemFlavor::Zircon, "no", "no",
         "yes", "no", "2*N"},
        {"LRPC-like(1copy)", core::SystemFlavor::Sel4OneCopy, "no",
         "yes", "no", "no", "N"},
        {"L4-like(2copy)", core::SystemFlavor::Sel4TwoCopy, "no",
         "yes", "yes", "no", "2*N"},
        {"XPC", core::SystemFlavor::Sel4Xpc, "yes", "yes", "yes",
         "yes", "0"},
    };
    for (const Row &r : rows)
        t.row(r.name, {r.noTrap, r.noSched, r.safe, r.handover, r.copies,
                       double(roundTrip(r.flavor, 4096))});
    t.print();
    std::printf(
        "\nPaper systems not buildable on address-space hardware\n"
        "(single-address-space or tagged-memory designs):\n"
        "  Opal, CHERI, CODOMs, MMP - domain switch without trap but\n"
        "  TOCTTOU-prone granting; M3's DTU copies 2*N via DMA.\n");

    report.less("round_trip_4KB.XPC", "round_trip_4KB.LRPC-like(1copy)");
    report.less("round_trip_4KB.LRPC-like(1copy)",
                "round_trip_4KB.L4-like(2copy)");
    report.less("round_trip_4KB.L4-like(2copy)",
                "round_trip_4KB.Mach-like(Zircon)");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
