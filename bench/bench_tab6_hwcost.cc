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

    BenchReport report("tab6_hwcost");
    Table t(report,
            "Table 6: estimated FPGA resource cost "
            "(paper: +1.99% LUT, +3.31% FF, +6.67% DSP)",
            {{"Resource"},
             {"Freedom", "%.0f", "freedom"},
             {"XPC", "%.0f", "xpc"},
             {"Cost", "%.2f%%", "overhead_pct"},
             {"(paper)", "(%.2f%%)", "paper.overhead_pct"}});
    auto line = [&](Table &tab, const char *name, const char *key,
                    uint64_t b, uint64_t w, Cell paper) {
        tab.row(name, key, {double(b), double(w),
                            ResourceModel::overheadPercent(b, w), paper});
    };
    line(t, "LUT", "lut", base.lut, with.lut, 1.99);
    line(t, "LUTRAM", "lutram", base.lutram, with.lutram, 0.0);
    line(t, "SRL", "srl", base.srl, with.srl, 0.0);
    line(t, "FF", "ff", base.ff, with.ff, 3.31);
    line(t, "RAMB36", "ramb36", base.ramb36, with.ramb36, 0.0);
    line(t, "RAMB18", "ramb18", base.ramb18, with.ramb18, 0.0);
    line(t, "DSP48", "dsp", base.dsp, with.dsp, 6.67);
    t.print();

    EngineInventory cached = ResourceModel::engineWithCache();
    ResourceEstimate wc = ResourceModel::withEngine(cached);
    Table c(report,
            "With the one-entry engine cache (not in the paper's "
            "default build)",
            {{""},
             {"", "%.0f", "engine_cache.freedom"},
             {"", "%.0f", "engine_cache.xpc"},
             {"", "%.2f%%", "engine_cache.overhead_pct"},
             {""}});
    line(c, "LUT", "lut", base.lut, wc.lut, "-");
    line(c, "FF", "ff", base.ff, wc.ff, "-");
    c.print();

    for (const char *r :
         {"lut", "lutram", "srl", "ff", "ramb36", "ramb18", "dsp"})
        report.near(std::string("overhead_pct.") + r, 0.01);
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
