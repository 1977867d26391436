/**
 * @file
 * Paper Table 3: the hardware instructions' cycle costs.
 *
 *   xcall    18
 *   xret     23
 *   swapseg  11
 *
 * Measured on the tagged-TLB machine with the non-blocking link
 * stack (the configuration Table 3 assumes), warm caches.
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

struct Costs
{
    uint64_t xcall = 0;
    uint64_t xret = 0;
    uint64_t swapseg = 0;
};

Costs
measure()
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.machine = hw::rocketU500Tagged();
    opts.engineOpts.nonblockingLinkStack = true;
    core::System sys(opts);

    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    core::XpcRuntime &rt = sys.runtime();
    uint64_t id = rt.registerEntry(server, server,
                                   [](core::XpcServerCall &) {}, 4);
    sys.manager().grantXcallCap(server, client, id);

    hw::Core &core = sys.core(0);
    rt.allocRelayMem(core, client, 8192);
    // A second segment to swap with.
    kernel::RelaySeg seg2 = sys.manager().allocRelaySeg(
        &core, *client.process(), 8192, 5);
    (void)seg2;

    // Warm up.
    for (int i = 0; i < 6; i++) {
        rt.call(core, client, id, 0, 0);
        sys.engine().swapseg(core, 5);
        sys.engine().swapseg(core, 5);
    }

    Costs c;
    Cycles t0 = core.now();
    auto xc = sys.engine().xcall(core, id, 0);
    c.xcall = (core.now() - t0).value();
    panic_if(xc.exc != engine::XpcException::None, "xcall failed");

    t0 = core.now();
    auto xr = sys.engine().xret(core);
    c.xret = (core.now() - t0).value();
    panic_if(xr.exc != engine::XpcException::None, "xret failed");

    t0 = core.now();
    auto sw = sys.engine().swapseg(core, 5);
    c.swapseg = (core.now() - t0).value();
    panic_if(sw != engine::XpcException::None, "swapseg failed");
    sys.engine().swapseg(core, 5);
    return c;
}

void
printTable()
{
    Costs c = measure();
    BenchReport report("tab3_instructions");
    Table t(report,
            "Table 3: cycles of the XPC hardware instructions "
            "(paper values in parentheses)",
            {{"Instruction"},
             {"Cycles", "%.0f", "cycles"},
             {"(paper)", "(%.0f)", "paper.cycles"}});
    t.row("xcall", {double(c.xcall), 18.0});
    t.row("xret", {double(c.xret), 23.0});
    t.row("swapseg", {double(c.swapseg), 11.0});
    t.print();

    report.less("cycles.swapseg", "cycles.xcall");
    report.less("cycles.xcall", "cycles.xret");
    for (const char *insn : {"xcall", "xret", "swapseg"})
        report.near(std::string("cycles.") + insn, 0.3);
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
