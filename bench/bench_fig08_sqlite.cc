/**
 * @file
 * Paper Figure 8(a)/(b): MiniDb (the Sqlite3 stand-in) throughput on
 * the YCSB workloads, normalized to the baseline of each system.
 * The paper reports +108% average on Zircon and +60% on seL4, with
 * the write-heavy A/F gaining the most and read-only C the least.
 */

#include "apps/ycsb.hh"
#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;
using namespace xpc::apps;

namespace {

double
throughput(core::SystemFlavor flavor, YcsbWorkload w)
{
    const hw::MachineConfig machine =
        (flavor == core::SystemFlavor::Zircon ||
         flavor == core::SystemFlavor::ZirconXpc)
            ? hw::lowRiscKc705()
            : hw::rocketU500();
    FsRig rig(flavor, 8192, &machine);
    MiniDb db(*rig.rec, rig.sys->core(0), *rig.client,
              rig.fsrv->id(), "ycsb.db", 640);
    YcsbConfig cfg;
    cfg.records = 1000; // paper 5.4: 1,000 records
    cfg.operations = 300;
    Ycsb ycsb(cfg);
    ycsb.load(db, rig.sys->core(0));
    YcsbResult r = ycsb.run(db, rig.sys->core(0), w);
    return r.throughputOpsPerSec(double(machine.freqHz));
}

const YcsbWorkload workloads[] = {YcsbWorkload::A, YcsbWorkload::B,
                                  YcsbWorkload::C, YcsbWorkload::D,
                                  YcsbWorkload::E, YcsbWorkload::F};

void
printTable()
{
    BenchReport report("fig08_sqlite");
    Table zircon(report,
                 "Figure 8(a): Sqlite3(MiniDb) YCSB throughput on Zircon "
                 "(normalized; paper avg +108%)",
                 {{"workload"},
                  {"Zircon", "%.0f", "zircon_ops"},
                  {"Zircon-XPC", "%.0f", "zircon_xpc_ops"},
                  {"normalized", "%.2f", "normalized.zircon_*"}});
    double zsum = 0;
    for (auto w : workloads) {
        double base = throughput(core::SystemFlavor::Zircon, w);
        double fast = throughput(core::SystemFlavor::ZirconXpc, w);
        zsum += fast / base;
        zircon.row(ycsbName(w), {base, fast, fast / base});
    }
    zircon.row("average", "avg", {"", "", zsum / 6.0});
    zircon.print();

    Table sel4(report,
               "Figure 8(b): Sqlite3(MiniDb) YCSB throughput on seL4 "
               "(normalized to two-copy; paper avg +60%)",
               {{"workload"},
                {"seL4-2copy", "%.0f", "sel4_2copy_ops"},
                {"seL4-1copy", "%.0f", "sel4_1copy_ops"},
                {"seL4-XPC", "%.0f", "sel4_xpc_ops"},
                {"normalized", "%.2f", "normalized.sel4_*"}});
    double ssum = 0;
    for (auto w : workloads) {
        double two = throughput(core::SystemFlavor::Sel4TwoCopy, w);
        double one = throughput(core::SystemFlavor::Sel4OneCopy, w);
        double fast = throughput(core::SystemFlavor::Sel4Xpc, w);
        ssum += fast / two;
        sel4.row(ycsbName(w), {two, one, fast, fast / two});
    }
    sel4.row("average", "avg", {"", "", "", ssum / 6.0});
    sel4.print();

    report.metric("paper.normalized.zircon_avg", 2.08);
    report.metric("paper.normalized.sel4_avg", 1.60);
    for (auto w : workloads) {
        std::string n = ycsbName(w);
        report.less("zircon_ops." + n, "zircon_xpc_ops." + n);
        report.less("sel4_2copy_ops." + n, "sel4_xpc_ops." + n);
    }
    for (const char *sys : {"zircon", "sel4"})
        for (const char *low : {"C", "E"})
            for (const char *high : {"A", "F"})
                report.less(std::string("normalized.") + sys + "_YCSB-" +
                                low,
                            std::string("normalized.") + sys + "_YCSB-" +
                                high);
    report.near("normalized.zircon_avg", 0.1);
    report.near("normalized.sel4_avg", 0.1)
        .deviation = "the read path's lock probe is one FS RPC on both "
                     "systems, and an seL4 RPC costs ~10x less than a "
                     "Zircon one, so seL4's reads gain less than the "
                     "paper's port";
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
