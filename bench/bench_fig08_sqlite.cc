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
    banner("Figure 8(a): Sqlite3(MiniDb) YCSB throughput on Zircon "
           "(normalized; paper avg +108%)");
    row({"workload", "Zircon", "Zircon-XPC", "normalized"});
    double zsum = 0;
    for (auto w : workloads) {
        double base = throughput(core::SystemFlavor::Zircon, w);
        double fast = throughput(core::SystemFlavor::ZirconXpc, w);
        zsum += fast / base;
        row({ycsbName(w), fmt("%.0f", base), fmt("%.0f", fast),
             fmt("%.2f", fast / base)});
        report.metric(std::string("zircon_ops.") + ycsbName(w), base);
        report.metric(std::string("zircon_xpc_ops.") + ycsbName(w),
                      fast);
    }
    row({"average", "", "", fmt("%.2f", zsum / 6.0)});
    report.metric("normalized.zircon_avg", zsum / 6.0);

    banner("Figure 8(b): Sqlite3(MiniDb) YCSB throughput on seL4 "
           "(normalized to two-copy; paper avg +60%)");
    row({"workload", "seL4-2copy", "seL4-1copy", "seL4-XPC",
         "normalized"});
    double ssum = 0;
    for (auto w : workloads) {
        double two = throughput(core::SystemFlavor::Sel4TwoCopy, w);
        double one = throughput(core::SystemFlavor::Sel4OneCopy, w);
        double fast = throughput(core::SystemFlavor::Sel4Xpc, w);
        ssum += fast / two;
        row({ycsbName(w), fmt("%.0f", two), fmt("%.0f", one),
             fmt("%.0f", fast), fmt("%.2f", fast / two)});
        report.metric(std::string("sel4_2copy_ops.") + ycsbName(w),
                      two);
        report.metric(std::string("sel4_xpc_ops.") + ycsbName(w),
                      fast);
    }
    row({"average", "", "", "", fmt("%.2f", ssum / 6.0)});
    report.metric("normalized.sel4_avg", ssum / 6.0);
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
