#include "machine.hh"

#include "sim/fault_injector.hh"
#include "sim/logging.hh"

namespace xpc::hw {

namespace {
/** First frame handed to the allocator; low frames are left free for
 *  firmware-like fixed structures if a component ever needs them. */
constexpr PAddr allocBase = 0x10000;
} // namespace

Machine::Machine(const MachineConfig &config, uint64_t dram_bytes)
    : cfg(config), physMem(dram_bytes),
      frameAlloc(allocBase, dram_bytes - allocBase)
{
    panic_if(cfg.cores == 0, "machine with zero cores");
    memSys = std::make_unique<mem::MemSystem>(physMem, cfg.mem, cfg.cores,
                                              requests_, tracer_);
    memSys->stats.setParent(&stats);
    for (CoreId i = 0; i < cfg.cores; i++) {
        coresVec.push_back(std::make_unique<Core>(i, *memSys));
        coresVec.back()->stats.setParent(&stats);
        // Core lanes are named here; thread lanes as they spawn.
        tracer_.setTrackName(i, "core" + std::to_string(i));
    }
    attachLogTracer(tracer_);
}

Machine::~Machine()
{
    detachLogTracer(tracer_);
}

void
Machine::setFaultInjector(FaultInjector *inj)
{
    injector = inj;
    memSys->setFaultInjector(inj);
    if (inj)
        inj->tracer = &tracer_; // fired faults are marked here
}

void
Machine::sendIpi(CoreId src, CoreId dst)
{
    panic_if(src == dst, "self-IPI is unsupported");
    Core &sender = core(src);
    Core &target = core(dst);
    target.syncTo(sender.now());
    target.spend(cfg.core.ipi);
}

} // namespace xpc::hw
