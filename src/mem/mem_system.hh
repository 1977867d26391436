/**
 * @file
 * The memory-system front end: translation plus timing plus data.
 *
 * Every simulated byte moved by kernels, the XPC engine, services and
 * applications flows through MemSystem, which
 *   1. translates virtual addresses via the relay-seg window (if one
 *      is active - it has priority over the page table, paper 3.3),
 *      the TLB, and the page walker;
 *   2. charges cycles through the per-core L1 / shared L2 / DRAM
 *      hierarchy plus an in-order issue cost per word; and
 *   3. performs the functional copy against PhysMem.
 */

#ifndef XPC_MEM_MEM_SYSTEM_HH
#define XPC_MEM_MEM_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "mem/cache.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "sim/phase.hh"
#include "sim/types.hh"

namespace xpc {
class FaultInjector;
}

namespace xpc::mem {

/** Memory-hierarchy parameters (one half of a MachineConfig). */
struct MemParams
{
    CacheParams l1d;
    CacheParams l2;
    Cycles dramLatency;
    uint32_t tlbEntries;
    uint32_t tlbAssoc;
    bool taggedTlb;
    /** Page-walk fixed overhead on top of the PTE fetches. */
    Cycles walkOverhead;
    /** In-order issue cost charged per machine word moved. */
    Cycles perWordIssue;
    /** Bytes moved per issued word (8 on Rocket; 16 on the ARM HPI
     *  model, whose copies use 128-bit NEON accesses). */
    uint32_t wordBytes = 8;
};

/**
 * The active relay-seg mapping, as seen by the address-translation
 * path. Owned and updated by the XPC engine; consulted before the
 * page table on every user access.
 */
struct SegWindow
{
    bool valid = false;
    VAddr vaBase = 0;
    PAddr paBase = 0;
    uint64_t len = 0;
    bool read = false;
    bool write = false;

    /** @return physical address if @p vaddr falls inside the window. */
    std::optional<PAddr>
    translate(VAddr vaddr) const
    {
        if (!valid || vaddr < vaBase || vaddr >= vaBase + len)
            return std::nullopt;
        return paBase + (vaddr - vaBase);
    }

    bool
    covers(VAddr vaddr, uint64_t n) const
    {
        return valid && vaddr >= vaBase && n <= len &&
               vaddr + n <= vaBase + len;
    }
};

/** Why a virtual access failed. */
enum class FaultKind
{
    None,
    PageFault,
    ProtectionFault,
    SegPermissionFault,
    /** Fault injected by a chaos plan (sim/fault_injector.hh). */
    Injected,
};

/** Result of a timed virtual access. */
struct AccessResult
{
    bool ok = false;
    Cycles cycles;
    FaultKind fault = FaultKind::None;
    VAddr faultAddr = 0;
};

/**
 * The relay page table of paper section 6.2: a dual page table the
 * walker selects by VA range, lifting relay-seg's contiguity
 * restriction at the cost of page-granularity ownership and a
 * per-page walk. Entries are TLB-cached under their own ASID.
 */
struct RelayPtWindow
{
    bool valid = false;
    VAddr vaBase = 0;
    uint64_t len = 0;
    const PageTable *pt = nullptr;
    /** Dedicated ASID so tagged TLBs cache relay translations
     *  separately from the process's own. */
    Asid asid = 0;

    bool
    covers(VAddr vaddr) const
    {
        return valid && vaddr >= vaBase && vaddr < vaBase + len;
    }
};

/** Translation context: which address space, which relay window. */
struct TransContext
{
    const PageTable *pt = nullptr;
    Asid asid = 0;
    const SegWindow *seg = nullptr;
    /** Optional dual page table (experimental relay-pt mode). */
    const RelayPtWindow *relayPt = nullptr;
    bool user = true;
};

/**
 * Memory-hierarchy attribution by call phase: every charged access is
 * also credited to whatever Phase the machine's req::RequestContext
 * had bound when it happened, so benches and the critical-path
 * profiler can answer "how many of this phase's cycles were TLB
 * walks?". Accesses outside any phase land in the trailing
 * "unattributed" row. Purely observational - it never adds cycles.
 */
class MemAttribution
{
  public:
    /** One phase's share of the memory traffic. */
    struct Row
    {
        Counter accesses;      ///< charged data accesses
        Counter cycles;        ///< data-movement cycles (incl. issue)
        Counter l1Misses;      ///< accesses that missed L1
        Counter tlbWalks;      ///< page walks triggered
        Counter walkCycles;    ///< cycles spent inside those walks
    };

    MemAttribution(StatGroup *parent,
                   const req::RequestContext &requests);

    /** Credit a charged data access to the active phase. */
    void
    access(uint64_t cycles, bool l1_missed)
    {
        Row &r = active();
        r.accesses.inc();
        r.cycles.inc(cycles);
        if (l1_missed)
            r.l1Misses.inc();
    }

    /** Credit a TLB-miss page walk to the active phase. */
    void
    walk(uint64_t cycles)
    {
        Row &r = active();
        r.tlbWalks.inc();
        r.walkCycles.inc(cycles);
    }

    /** The row for phase @p i (0..phaseCount-1). */
    const Row &row(uint32_t i) const { return rows[i]; }
    /** Traffic that happened outside any phase scope. */
    const Row &unattributed() const { return rows[phaseCount]; }

    StatGroup &statGroup() { return group; }

  private:
    Row &
    active()
    {
        uint32_t p = ctx.currentPhase();
        return rows[p < phaseCount ? p : phaseCount];
    }

    const req::RequestContext &ctx;
    StatGroup group{"attr"};
    Row rows[phaseCount + 1];
};

/** Per-machine memory system: per-core L1D + TLB, shared L2, DRAM. */
class MemSystem
{
  public:
    /** Attribution reads the phase from @p requests; miss fills are
     *  marked on @p tracer. */
    MemSystem(PhysMem &phys, const MemParams &params, uint32_t ncores,
              req::RequestContext &requests, trace::Tracer &tracer);

    /** Timed virtual read of @p len bytes into @p dst. */
    AccessResult read(CoreId core, const TransContext &ctx, VAddr vaddr,
                      void *dst, uint64_t len);

    /** Timed virtual write of @p len bytes from @p src. */
    AccessResult write(CoreId core, const TransContext &ctx, VAddr vaddr,
                       const void *src, uint64_t len);

    /**
     * Timed virtual-to-virtual copy (the cost of a kernel or user
     * memcpy between two address spaces).
     */
    AccessResult copy(CoreId core, const TransContext &src_ctx,
                      VAddr src, const TransContext &dst_ctx, VAddr dst,
                      uint64_t len);

    /** Timed physical read (kernel and XPC-engine structures). */
    Cycles readPhys(CoreId core, PAddr paddr, void *dst, uint64_t len);

    /** Timed physical write. */
    Cycles writePhys(CoreId core, PAddr paddr, const void *src,
                     uint64_t len);

    /**
     * Translate only (no data movement): used for permission probes.
     * Charges TLB-miss walk cycles if a walk happens.
     */
    AccessResult translate(CoreId core, const TransContext &ctx,
                           VAddr vaddr, bool is_write, PAddr *out);

    Tlb &tlb(CoreId core) { return *tlbs[core]; }
    Cache &l1(CoreId core) { return *l1ds[core]; }
    Cache &l2Cache() { return *l2; }
    PhysMem &phys() { return physMem; }
    const MemParams &params() const { return memParams; }
    req::RequestContext &requests() { return requests_; }
    trace::Tracer &tracer() { return tracer_; }

    /** Flush one core's TLB (untagged address-space switch). */
    void flushTlb(CoreId core) { tlbs[core]->flushAll(); }

    /**
     * Attach a fault injector: while one is set and has an armed
     * memory fault, the next virtual access consumes it and fails
     * with FaultKind::Injected instead of moving data.
     */
    void setFaultInjector(FaultInjector *inj) { injector = inj; }
    FaultInjector *faultInjector() const { return injector; }

    /** Registry node covering the TLBs and the cache hierarchy. */
    StatGroup stats{"mem"};
    /** Per-phase attribution of the traffic above ("mem.attr"). */
    MemAttribution attr;

  private:
    req::RequestContext &requests_;
    trace::Tracer &tracer_;
    PhysMem &physMem;
    MemParams memParams;
    FaultInjector *injector = nullptr;
    std::unique_ptr<Cache> l2;
    std::vector<std::unique_ptr<Cache>> l1ds;
    std::vector<std::unique_ptr<Tlb>> tlbs;

    Cycles issueCost(uint64_t len) const;

    /** Charge @p len bytes at @p paddr through this core's L1 plus
     *  the issue cost, credited to the active phase; @p l1_missed
     *  says whether the access missed L1. */
    Cycles charge(CoreId core, PAddr paddr, uint64_t len, bool is_write,
                  bool &l1_missed);

    /** The charged per-page loop behind read (Byte = uint8_t) and
     *  write (Byte = const uint8_t). */
    template <typename Byte>
    AccessResult access(CoreId core, const TransContext &ctx,
                        VAddr vaddr, Byte *buf, uint64_t len);
};

} // namespace xpc::mem

#endif // XPC_MEM_MEM_SYSTEM_HH
