/**
 * @file
 * Paper Table 1: one-way IPC latency breakdown of the seL4 fast path
 * on the Rocket/U500 machine, for a 0-byte and a 4 KiB message.
 *
 *   Phases (cycles)    seL4(0B)   seL4(4KB)
 *   Trap                  107        110
 *   IPC Logic             212        216
 *   Process Switch        146        211
 *   Restore               199        257
 *   Message Transfer        0       4010
 *   Sum                    664       4804
 */

#include "bench_util.hh"
#include "kernel/sel4.hh"
#include "sim/logging.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

struct Breakdown
{
    kernel::Sel4Phases phases;
};

Breakdown
measure(uint64_t msg_bytes, BenchReport *report = nullptr,
        const char *scope = "")
{
    hw::Machine machine(hw::rocketU500(), 256 << 20);
    kernel::Sel4Kernel kern(machine);
    kernel::Process &cp = kern.createProcess("client");
    kernel::Process &sp = kern.createProcess("server");
    kernel::Thread &ct = kern.createThread(cp, 0);
    kernel::Thread &st = kern.createThread(sp, 0);
    kern.setCurrent(0, &ct);
    uint64_t ep = kern.createPort(st, [](kernel::ServerCall &) {});
    kern.grantPort(ct, ep);
    VAddr req = cp.alloc(64 * 1024);
    VAddr reply = cp.alloc(64 * 1024);

    std::vector<uint8_t> payload(msg_bytes, 0x3c);
    // Warm path, as in the paper's fast-path measurements. Once the
    // path is steady, reset the registry so the measured phase holds
    // only steady-state samples.
    for (int i = 0; i < 10; i++) {
        if (i == 5)
            kern.stats.resetAll();
        if (msg_bytes > 0) {
            kern.userWrite(machine.core(0), cp, req, payload.data(),
                           msg_bytes);
        }
        auto out = kern.callPort(machine.core(0), ct, ep, 1, req,
                                 msg_bytes, reply, 64);
        if (!out.ok)
            fatal("seL4 call failed");
    }

    // Table 1 is read from the stat registry, not from private
    // kernel bookkeeping.
    const PhaseStats &ps = kern.phaseStats;
    Breakdown b;
    b.phases.trap = Cycles(ps.last(Phase::Trap));
    b.phases.logic = Cycles(ps.last(Phase::IpcLogic));
    b.phases.processSwitch = Cycles(ps.last(Phase::ProcessSwitch));
    b.phases.restore = Cycles(ps.last(Phase::Restore));
    b.phases.transfer = Cycles(ps.last(Phase::Transfer));
    if (report) {
        report->phaseStats(scope, ps);
        report->metric(std::string(scope) + ".one_way_sum",
                       double(b.phases.sum().value()));
        report->distribution(std::string(scope) + ".round_trip",
                             ps.dist(Phase::RoundTrip));
    }
    return b;
}

void
printTable()
{
    BenchReport report("tab1_sel4_breakdown");
    report.config("machine", "rocket-u500");
    Breakdown b0 = measure(0, &report, "sel4_0B");
    Breakdown b4k = measure(4096, &report, "sel4_4KB");

    banner("Table 1: one-way IPC latency of seL4 "
           "(simulated rocket-u500; paper values in parentheses)");
    row({"Phases (cycles)", "seL4(0B)", "(paper)", "seL4(4KB)",
         "(paper)"}, 18);
    auto line = [&](const char *name, Cycles a, int pa, Cycles b,
                    int pb) {
        row({name, fmtU(a.value()), "(" + fmtU(pa) + ")",
             fmtU(b.value()), "(" + fmtU(pb) + ")"}, 18);
    };
    line("Trap", b0.phases.trap, 107, b4k.phases.trap, 110);
    line("IPC Logic", b0.phases.logic, 212, b4k.phases.logic, 216);
    line("Process Switch", b0.phases.processSwitch, 146,
         b4k.phases.processSwitch, 211);
    line("Restore", b0.phases.restore, 199, b4k.phases.restore, 257);
    line("Message Transfer", b0.phases.transfer, 0,
         b4k.phases.transfer, 4010);
    line("Sum", b0.phases.sum(), 664, b4k.phases.sum(), 4804);
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
