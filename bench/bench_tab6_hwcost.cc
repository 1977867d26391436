/**
 * @file
 * Paper Table 6: FPGA resource cost of the XPC engine. Synthesis is
 * unavailable here, so the numbers come from the structural resource
 * estimator (hwcost::ResourceModel) whose per-primitive factors are
 * calibrated against the paper's published Vivado report.
 */

#include "bench_util.hh"
#include "hwcost/resource_model.hh"

using namespace xpc;
using namespace xpc::bench;
using namespace xpc::hwcost;

namespace {

void
printTable()
{
    ResourceEstimate base = ResourceModel::freedomU500Baseline();
    EngineInventory inv = ResourceModel::defaultEngine();
    ResourceEstimate with = ResourceModel::withEngine(inv);

    banner("Table 6: estimated FPGA resource cost "
           "(paper: +1.99% LUT, +3.31% FF, +6.67% DSP)");
    row({"Resource", "Freedom", "XPC", "Cost", "(paper)"}, 12);
    auto line = [&](const char *name, uint64_t b, uint64_t w,
                    const char *paper) {
        row({name, fmtU(b), fmtU(w),
             fmt("%.2f%%", ResourceModel::overheadPercent(b, w)),
             paper},
            12);
    };
    line("LUT", base.lut, with.lut, "(1.99%)");
    line("LUTRAM", base.lutram, with.lutram, "(0.00%)");
    line("SRL", base.srl, with.srl, "(0.00%)");
    line("FF", base.ff, with.ff, "(3.31%)");
    line("RAMB36", base.ramb36, with.ramb36, "(0.00%)");
    line("RAMB18", base.ramb18, with.ramb18, "(0.00%)");
    line("DSP48", base.dsp, with.dsp, "(6.67%)");

    EngineInventory cached = ResourceModel::engineWithCache();
    ResourceEstimate wc = ResourceModel::withEngine(cached);
    banner("With the one-entry engine cache (not in the paper's "
           "default build)");
    line("LUT", base.lut, wc.lut, "-");
    line("FF", base.ff, wc.ff, "-");

    BenchReport report("tab6_hwcost");
    report.metric("overhead_pct.lut",
                  ResourceModel::overheadPercent(base.lut, with.lut));
    report.metric("overhead_pct.ff",
                  ResourceModel::overheadPercent(base.ff, with.ff));
    report.metric("overhead_pct.dsp",
                  ResourceModel::overheadPercent(base.dsp, with.dsp));
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
