/**
 * @file
 * The top-level simulated machine: DRAM, the frame allocator, the
 * memory system and the cores, built from one MachineConfig, plus
 * the request context and the tracer every layer above reaches
 * through a core, a kernel or a transport.
 */

#ifndef XPC_HW_MACHINE_HH
#define XPC_HW_MACHINE_HH

#include <memory>
#include <vector>

#include "hw/core.hh"
#include "hw/machine_config.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"

namespace xpc::hw {

/** A complete simulated machine instance. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config,
                     uint64_t dram_bytes = uint64_t(512) << 20);
    ~Machine();

    const MachineConfig &config() const { return cfg; }

    uint32_t coreCount() const { return uint32_t(coresVec.size()); }
    Core &core(CoreId id) { return *coresVec.at(id); }

    mem::PhysMem &phys() { return physMem; }
    mem::PhysAllocator &allocator() { return frameAlloc; }
    mem::MemSystem &mem() { return *memSys; }

    /** This machine's request ids, phases, deadlines and tiers. */
    req::RequestContext &requests() { return requests_; }
    /** This machine's trace ring and lane names. While the machine
     *  is the newest one alive, log records land here too. */
    trace::Tracer &tracer() { return tracer_; }

    /**
     * Deliver an IPI from @p src to @p dst: charges the interrupt cost
     * on the destination and synchronizes its clock past the sender's.
     */
    void sendIpi(CoreId src, CoreId dst);

    /**
     * Attach a chaos fault injector to the whole machine: the memory
     * system, the XPC engine, the kernels and the runtime all consult
     * it, and it marks the faults it fires on this machine's tracer.
     * Null detaches.
     */
    void setFaultInjector(FaultInjector *inj);

    FaultInjector *faultInjector() const { return injector; }

    /** Registry node covering the cores and the memory system. */
    StatGroup stats{"machine"};

  private:
    MachineConfig cfg;
    FaultInjector *injector = nullptr;
    // Before everything that refers to them, so they outlive it.
    req::RequestContext requests_;
    trace::Tracer tracer_{requests_};
    mem::PhysMem physMem;
    mem::PhysAllocator frameAlloc;
    std::unique_ptr<mem::MemSystem> memSys;
    std::vector<std::unique_ptr<Core>> coresVec;
};

} // namespace xpc::hw

#endif // XPC_HW_MACHINE_HH
