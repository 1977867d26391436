#include "phase.hh"

namespace xpc {

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Trap:
        return "trap";
      case Phase::IpcLogic:
        return "ipc_logic";
      case Phase::ProcessSwitch:
        return "process_switch";
      case Phase::Restore:
        return "restore";
      case Phase::Transfer:
        return "transfer";
      case Phase::Trampoline:
        return "trampoline";
      case Phase::Xcall:
        return "xcall";
      case Phase::Handler:
        return "handler";
      case Phase::Xret:
        return "xret";
      case Phase::OneWay:
        return "one_way";
      case Phase::RoundTrip:
        return "round_trip";
    }
    return "unknown";
}

PhaseStats::PhaseStats(const char *name, StatGroup *parent)
    : group(name, parent)
{
    for (uint32_t i = 0; i < phaseCount; i++)
        group.addHistogram(phaseName(Phase(i)), &perPhase[i]);
}

void
PhaseStats::reset()
{
    for (uint32_t i = 0; i < phaseCount; i++) {
        perPhase[i].reset();
        lastVal[i] = 0;
    }
}

} // namespace xpc
