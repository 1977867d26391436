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

using namespace xpc;
using namespace xpc::bench;

namespace {

kernel::Sel4Phases
measure(uint64_t msg_bytes, BenchReport &report, const char *scope)
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
    kernel::Sel4Phases b;
    b.trap = Cycles(ps.last(Phase::Trap));
    b.logic = Cycles(ps.last(Phase::IpcLogic));
    b.processSwitch = Cycles(ps.last(Phase::ProcessSwitch));
    b.restore = Cycles(ps.last(Phase::Restore));
    b.transfer = Cycles(ps.last(Phase::Transfer));
    report.phaseStats(scope, ps);
    report.distribution(std::string(scope) + ".round_trip",
                        ps.histogram(Phase::RoundTrip));
    return b;
}

void
printTable()
{
    BenchReport report("tab1_sel4_breakdown");
    report.config("machine", "rocket-u500");
    kernel::Sel4Phases b0 = measure(0, report, "sel4_0B");
    kernel::Sel4Phases b4k = measure(4096, report, "sel4_4KB");

    Table t(report,
            "Table 1: one-way IPC latency of seL4 "
            "(simulated rocket-u500; paper values in parentheses)",
            {{"Phases (cycles)"},
             {"seL4(0B)", "%.0f", "sel4_0B"},
             {"(paper)", "(%.0f)", "paper.sel4_0B"},
             {"seL4(4KB)", "%.0f", "sel4_4KB"},
             {"(paper)", "(%.0f)", "paper.sel4_4KB"}});
    auto line = [&](const char *name, const char *key, Cycles a, int pa,
                    Cycles b, int pb) {
        t.row(name, key, {double(a.value()), double(pa),
                          double(b.value()), double(pb)});
    };
    line("Trap", "trap", b0.trap, 107, b4k.trap, 110);
    line("IPC Logic", "ipc_logic", b0.logic, 212,
         b4k.logic, 216);
    line("Process Switch", "process_switch", b0.processSwitch,
         146, b4k.processSwitch, 211);
    line("Restore", "restore", b0.restore, 199,
         b4k.restore, 257);
    line("Message Transfer", "transfer", b0.transfer, 0,
         b4k.transfer, 4010);
    line("Sum", "one_way_sum", b0.sum(), 664, b4k.sum(),
         4804);
    t.print();

    // The 0-byte column is the calibrated cost model; the 4 KiB column
    // is emergent, and only its trap and IPC logic match the paper.
    const char *constants =
        "the calibrated 0-byte constants do not grow with the message "
        "here";
    const char *copies =
        "simulated copies run at ~0.67 cyc/B against the FPGA's ~1 cyc/B";
    const std::pair<const char *, const char *> phases[] = {
        {"trap", ""},           {"ipc_logic", ""},
        {"process_switch", constants}, {"restore", constants},
        {"transfer", copies},   {"one_way_sum", copies}};
    for (const auto &[phase, why_4k] : phases) {
        report.near(std::string("sel4_0B.") + phase, 0.05);
        report.near(std::string("sel4_4KB.") + phase, 0.05)
            .deviation = why_4k;
    }
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
