/**
 * @file
 * Ablations of the design choices DESIGN.md calls out (beyond the
 * paper's own Figure 5 ladder):
 *
 *   - non-blocking link stack on/off
 *   - engine cache + prefetch on/off
 *   - tagged vs untagged TLB
 *   - xcall-cap bitmap vs radix tree (paper 6.2)
 *   - relay-seg vs shared-memory vs kernel-copy message paths at
 *     three message sizes (the Figure 10 taxonomy, measured)
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

uint64_t
xcallCost(bool nonblocking, bool cache, bool tagged, bool radix)
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.machine = tagged ? hw::rocketU500Tagged() : hw::rocketU500();
    opts.engineOpts.nonblockingLinkStack = nonblocking;
    opts.engineOpts.engineCache = cache;
    opts.engineOpts.radixCaps = radix;
    core::System sys(opts);
    kernel::Thread &server = sys.spawn("server");
    kernel::Thread &client = sys.spawn("client");
    uint64_t id = sys.runtime().registerEntry(
        server, server, [](core::XpcServerCall &) {}, 2);
    sys.manager().grantXcallCap(server, client, id);
    hw::Core &core = sys.core(0);
    sys.runtime().allocRelayMem(core, client, 4096);
    for (int i = 0; i < 6; i++)
        sys.runtime().call(core, client, id, 0, 0);
    if (cache)
        sys.engine().prefetch(core, id);
    Cycles t0 = core.now();
    auto xc = sys.engine().xcall(core, id, 0);
    uint64_t cost = (core.now() - t0).value();
    panic_if(xc.exc != engine::XpcException::None, "xcall failed");
    sys.engine().xret(core);
    return cost;
}

void
printXcallAblation(BenchReport &report)
{
    Table t(report,
            "Ablation: xcall latency under engine design choices "
            "(tagged TLB unless noted)",
            {{"Variant"}, {"xcall cycles", "%.0f", "xcall_cycles"}});
    auto line = [&](const char *name, const char *key, uint64_t c) {
        t.row(name, key, {double(c)});
    };
    line("baseline (nonblock, bitmap)", "baseline",
         xcallCost(true, false, true, false));
    line("blocking link stack", "blocking",
         xcallCost(false, false, true, false));
    line("engine cache + prefetch", "engine_cache",
         xcallCost(true, true, true, false));
    line("radix-tree xcall-caps (6.2)", "radix_caps",
         xcallCost(true, false, true, true));
    line("untagged TLB (flush+refill)", "untagged_tlb",
         xcallCost(true, false, false, false));
    t.print();

    report.less("xcall_cycles.engine_cache", "xcall_cycles.baseline");
    for (const char *dearer : {"blocking", "radix_caps", "untagged_tlb"})
        report.less("xcall_cycles.baseline",
                    std::string("xcall_cycles.") + dearer);
}

void
printMessagePathAblation(BenchReport &report)
{
    Table t(report,
            "Ablation: message-path disciplines, echo round trip "
            "(cycles) - the Figure 10 taxonomy measured",
            {{"bytes"},
             {"kernel-copy(Zircon)", "%.0f", "round_trip.kernel_copy"},
             {"shared-1copy", "%.0f", "round_trip.shared_1copy"},
             {"shared-2copy", "%.0f", "round_trip.shared_2copy"},
             {"relay-seg(XPC)", "%.0f", "round_trip.relay_seg"}});
    for (uint64_t bytes : {256ul, 4096ul, 32768ul}) {
        auto rt = [&](core::SystemFlavor f) {
            EchoRig rig(f);
            core::CallResult r;
            for (int i = 0; i < 5; i++)
                r = rig.call(bytes);
            return double(r.roundTrip.value());
        };
        std::string sz = std::to_string(bytes) + "B";
        t.row(std::to_string(bytes), sz,
              {rt(core::SystemFlavor::Zircon),
               rt(core::SystemFlavor::Sel4OneCopy),
               rt(core::SystemFlavor::Sel4TwoCopy),
               rt(core::SystemFlavor::Sel4Xpc)});
        report.less("round_trip.relay_seg." + sz,
                    "round_trip.shared_1copy." + sz);
        report.less("round_trip.relay_seg." + sz,
                    "round_trip.kernel_copy." + sz);
        report.less("round_trip.shared_1copy." + sz,
                    "round_trip.shared_2copy." + sz);
    }
    t.print();
}

void
printTrampolineAblation(BenchReport &report)
{
    auto rt = [&](core::TrampolineMode mode) {
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        opts.runtimeOpts.trampoline = mode;
        core::System sys(opts);
        kernel::Thread &server = sys.spawn("server");
        kernel::Thread &client = sys.spawn("client");
        uint64_t id = sys.runtime().registerEntry(
            server, server, [](core::XpcServerCall &) {}, 2);
        sys.manager().grantXcallCap(server, client, id);
        hw::Core &core = sys.core(0);
        sys.runtime().allocRelayMem(core, client, 4096);
        core::XpcCallOutcome out;
        for (int i = 0; i < 6; i++)
            out = sys.runtime().call(core, client, id, 0, 0);
        return double(out.roundTrip.value());
    };
    Table t(report,
            "Ablation: trampoline context policy (round trip, empty "
            "handler)",
            {{""}, {"", "%.0f", "round_trip.trampoline"}});
    t.row("full context", "full_context",
          {rt(core::TrampolineMode::FullContext)});
    t.row("partial context", "partial_context",
          {rt(core::TrampolineMode::PartialContext)});
    t.print();
    report.less("round_trip.trampoline.partial_context",
                "round_trip.trampoline.full_context");
}

void
printRelayPtAblation(BenchReport &report)
{
    Table t(report,
            "Ablation: relay segment vs relay page table (paper 6.2) "
            "- ownership handover cost by region size",
            {{"pages"},
             {"relay-seg handover", "%.0f", "handover_cycles.relay_seg"},
             {"relay-pt transfer", "%.0f", "handover_cycles.relay_pt"}});
    for (uint64_t pages : {4ul, 16ul, 64ul, 256ul}) {
        // relay-seg: the handover is the xcall itself (seg-reg swap).
        core::SystemOptions opts;
        opts.flavor = core::SystemFlavor::Sel4Xpc;
        opts.machine = hw::rocketU500Tagged();
        core::System sys(opts);
        kernel::Thread &server = sys.spawn("server");
        kernel::Thread &client = sys.spawn("client");
        uint64_t id = sys.runtime().registerEntry(
            server, server, [](core::XpcServerCall &) {}, 2);
        sys.manager().grantXcallCap(server, client, id);
        hw::Core &core = sys.core(0);
        sys.runtime().allocRelayMem(core, client, pages * pageSize);
        core::XpcCallOutcome out;
        for (int i = 0; i < 4; i++)
            out = sys.runtime().call(core, client, id, 0, 0);
        uint64_t seg_cost = out.oneWay.value();

        // relay-pt: the kernel-mediated ownership transfer.
        kernel::Thread &peer = sys.spawn("peer");
        auto &rpt = sys.manager().allocRelayPt(
            nullptr, *client.process(), pages * pageSize);
        Cycles t0 = core.now();
        sys.manager().transferRelayPt(&core, rpt.id,
                                      *peer.process());
        uint64_t pt_cost = (core.now() - t0).value();
        t.row(std::to_string(pages), std::to_string(pages) + "pages",
              {double(seg_cost), double(pt_cost)});
    }
    t.print();
    std::printf("(relay-seg handover is O(1); the dual-page-table "
                "alternative pays O(pages) + TLB shootdown)\n");
    report.less("handover_cycles.relay_seg.256pages",
                "handover_cycles.relay_pt.4pages");
    report.less("handover_cycles.relay_pt.4pages",
                "handover_cycles.relay_pt.256pages");
}

} // namespace

int
main()
{
    BenchReport report("ablation");
    printXcallAblation(report);
    printMessagePathAblation(report);
    printTrampolineAblation(report);
    printRelayPtAblation(report);
    return 0;
}
