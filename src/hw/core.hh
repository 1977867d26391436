/**
 * @file
 * Per-hardware-thread state: the cycle clock, privilege level and the
 * architectural registers the XPC engine extends the core with.
 *
 * Execution in this simulator is call-driven (simulated software is
 * C++ invoking simulated primitives), so a Core is principally a
 * cycle accumulator plus the CSR state those primitives read/write.
 */

#ifndef XPC_HW_CORE_HH
#define XPC_HW_CORE_HH

#include <cstdint>
#include <string>

#include "mem/mem_system.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace xpc::hw {

/** Privilege level of the code currently running on a core. */
enum class Privilege { User, Kernel, Machine };

/**
 * The XPC CSRs of one core (paper Table 2). The per-thread registers
 * (xcall-cap-reg, link-reg, seg state) are saved/restored by the
 * kernel on context switch; the engine reads them from here.
 */
struct XpcCsrs
{
    /** Current page-table pointer (satp analogue); the engine swaps
     *  it on xcall/xret without kernel involvement. */
    PAddr pageTableRoot = 0;
    PAddr xEntryTable = 0;    ///< x-entry-table-reg
    uint64_t xEntryTableSize = 0; ///< x-entry-table-size
    PAddr xcallCap = 0;       ///< xcall-cap-reg (bitmap base)
    PAddr linkReg = 0;        ///< link-reg (link stack base)
    uint64_t linkTop = 0;     ///< link stack depth (index of next push)
    mem::SegWindow segReg;    ///< relay-seg mapping register
    uint64_t segId = 0;       ///< kernel identity of the active segment
    uint64_t segMaskOffset = 0; ///< seg-mask: offset into seg-reg
    uint64_t segMaskLen = 0;  ///< seg-mask: length (0 = unmasked)
    PAddr segList = 0;        ///< seg-listp (relay segment list base)
};

/** One simulated hardware thread. */
class Core
{
  public:
    Core(CoreId id, mem::MemSystem &mem_system)
        : coreId(id), memSys(mem_system)
    {
        stats.setName("core" + std::to_string(id));
        stats.addCounter("instructions_retired",
                         &instructionsRetired);
    }

    CoreId id() const { return coreId; }

    /** Current local time in cycles. */
    Cycles now() const { return clock; }

    /** Charge @p c cycles of work to this core. */
    void spend(Cycles c) { clock += c; }

    /**
     * Advance this core's clock to at least @p t (used when a message
     * or IPI from another core imposes a happens-before edge).
     */
    void
    syncTo(Cycles t)
    {
        if (clock < t)
            clock = t;
    }

    Privilege privilege() const { return priv; }
    void setPrivilege(Privilege p) { priv = p; }

    /** XPC CSR file, mutated by the engine and the kernel. */
    XpcCsrs csrs;

    mem::MemSystem &mem() { return memSys; }
    /** The request context and tracer of the core's machine. */
    req::RequestContext &requests() { return memSys.requests(); }
    trace::Tracer &tracer() { return memSys.tracer(); }

    Counter instructionsRetired;

    /** Registry node; attached to the machine's group. */
    StatGroup stats{"core"};

  private:
    CoreId coreId;
    mem::MemSystem &memSys;
    Cycles clock;
    Privilege priv = Privilege::User;
};

} // namespace xpc::hw

#endif // XPC_HW_CORE_HH
