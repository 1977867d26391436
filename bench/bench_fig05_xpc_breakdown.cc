/**
 * @file
 * Paper Figure 5: the XPC optimization ladder and its breakdown.
 *
 *   Full-Cxt            150   (trampoline 76 + xcall 34 + TLB 40)
 *   Partial-Cxt          89   (trampoline 15 + xcall 34 + TLB 40)
 *   +Tagged-TLB          49   (trampoline 15 + xcall 34)
 *   +Nonblock LinkStack  33   (trampoline 15 + xcall 18)
 *   +Engine Cache        21   (trampoline 15 + xcall  6)
 *
 * Each rung is one IPC call (one-way) with the corresponding
 * hardware/software configuration; the handler touches its C-stack
 * like real trampoline code so TLB refills are visible.
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

struct Config
{
    const char *name;
    bool tagged;
    bool nonblocking;
    bool engineCache;
    core::TrampolineMode tramp;
    int paperTotal;
};

struct Sample
{
    uint64_t total = 0;
    uint64_t xcall = 0;
    uint64_t trampoline = 0;
    uint64_t tlb = 0;
};

Sample
measure(const Config &cfg)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.machine = cfg.tagged ? hw::rocketU500Tagged()
                              : hw::rocketU500();
    opts.engineOpts.nonblockingLinkStack = cfg.nonblocking;
    opts.engineOpts.engineCache = cfg.engineCache;
    opts.runtimeOpts.trampoline = cfg.tramp;
    opts.runtimeOpts.prefetchEntries = cfg.engineCache;
    core::System sys(opts);

    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    core::XpcRuntime &rt = sys.runtime();

    kernel::Kernel &kern = sys.kern();
    VAddr touch = server.process()->alloc(2 * pageSize);
    uint64_t id = rt.registerEntry(
        server, server,
        [&](core::XpcServerCall &call) {
            // Touch the C-stack / locals the way a real handler
            // prologue would (TLB-visible accesses).
            uint64_t probe[2];
            kern.userRead(call.core(), *server.process(), touch,
                          probe, 8);
            kern.userRead(call.core(), *server.process(),
                          touch + pageSize, probe, 8);
        },
        4);
    sys.manager().grantXcallCap(server, client, id);

    hw::Core &core = sys.core(0);
    rt.allocRelayMem(core, client, 4096);

    // Warm everything, reset the registry at steady state, then
    // measure one call. The breakdown is read back from the
    // runtime's phase attribution instead of private accounting.
    core::XpcCallOutcome out;
    for (int i = 0; i < 8; i++) {
        if (i == 7)
            sys.stats().resetAll();
        out = rt.call(core, client, id, 0, 0);
    }
    panic_if(!out.ok, "xpc call failed");

    const PhaseStats &ps = rt.phaseStats;
    Sample s;
    s.total = ps.last(Phase::OneWay);
    s.xcall = ps.last(Phase::Xcall);
    s.trampoline = ps.last(Phase::Trampoline);
    s.tlb = s.total > s.xcall + s.trampoline
                ? s.total - s.xcall - s.trampoline
                : 0;
    return s;
}

const Config configs[] = {
    {"Full-Cxt", false, false, false,
     core::TrampolineMode::FullContext, 150},
    {"Partial-Cxt", false, false, false,
     core::TrampolineMode::PartialContext, 89},
    {"+Tagged-TLB", true, false, false,
     core::TrampolineMode::PartialContext, 49},
    {"+NonblockLinkStack", true, true, false,
     core::TrampolineMode::PartialContext, 33},
    {"+EngineCache", true, true, true,
     core::TrampolineMode::PartialContext, 21},
};

void
printTable()
{
    BenchReport report("fig05_xpc_breakdown");
    report.config("machine", "rocket-u500");
    Table t(report,
            "Figure 5: XPC optimizations and breakdown "
            "(one-way IPC cycles; paper totals in parentheses)",
            {{"Config"},
             {"total", "%.0f", "*.one_way"},
             {"(paper)", "(%.0f)", "paper.*.one_way"},
             {"trampoline", "%.0f", "*.trampoline"},
             {"xcall", "%.0f", "*.xcall"},
             {"tlb/other", "%.0f", "*.tlb_other"}});
    for (const Config &cfg : configs) {
        Sample s = measure(cfg);
        t.row(cfg.name, {double(s.total), double(cfg.paperTotal),
                         double(s.trampoline), double(s.xcall),
                         double(s.tlb)});
    }
    t.print();

    for (size_t i = 0; i < std::size(configs); i++) {
        std::string rung = std::string(configs[i].name) + ".one_way";
        report.near(rung, 0.1);
        if (i > 0)
            report.less(rung,
                        std::string(configs[i - 1].name) + ".one_way");
    }
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
