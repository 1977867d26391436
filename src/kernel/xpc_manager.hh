/**
 * @file
 * The kernel's XPC control plane (paper 3/4.1/4.2/4.4).
 *
 * The data plane (xcall/xret/swapseg) is hardware; everything slow or
 * security-critical stays in the kernel: allocating the global
 * x-entry table, per-thread link stacks and capability bitmaps,
 * per-process seg-lists; the grant-cap capability model; allocating
 * physically contiguous relay segments that never overlap page-table
 * mappings; and cleaning all of it up when a process dies mid-chain.
 */

#ifndef XPC_KERNEL_XPC_MANAGER_HH
#define XPC_KERNEL_XPC_MANAGER_HH

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "kernel/kernel.hh"
#include "xpc/engine.hh"

namespace xpc::kernel {

/** A kernel-allocated relay segment. */
struct RelaySeg
{
    uint64_t segId = 0;
    VAddr va = 0;
    PAddr pa = 0;
    uint64_t len = 0;
    /** Process that allocated (and ultimately owns) the memory. */
    ProcessId allocator = 0;
};

/** Metadata the kernel keeps per registered x-entry. */
struct XEntryInfo
{
    uint64_t id = 0;
    Thread *handlerThread = nullptr;
    VAddr entryAddr = 0;
    uint32_t maxContexts = 1;
    bool live = false;
};

/** Kernel-side manager of all XPC state. */
class XpcManager
{
  public:
    XpcManager(Kernel &kernel, engine::XpcEngine &engine);

    engine::XpcEngine &engine() { return xpcEngine; }
    PAddr xEntryTable() const { return tableBase; }
    uint64_t xEntryTableSize() const { return tableSize; }

    /**
     * Give @p thread its XPC plumbing: an 8 KiB link stack and a
     * capability bitmap. Called once per thread before it may xcall.
     */
    void initThread(Thread &thread);

    /**
     * Register a new x-entry served by @p handler_thread at
     * @p entry_addr. The creating thread receives the grant-cap.
     * @return the new x-entry ID.
     */
    uint64_t registerEntry(Thread &creator, Thread &handler_thread,
                           VAddr entry_addr, uint32_t max_contexts);

    /** Invalidate an x-entry. */
    void removeEntry(uint64_t id);

    const XEntryInfo &entryInfo(uint64_t id) const;

    /// @name Capability model (paper 4.2).
    /// @{
    /**
     * @p grantor (holding the grant-cap) gives @p grantee the xcall
     * capability for entry @p id. Fails loudly without the grant-cap.
     */
    void grantXcallCap(Thread &grantor, Thread &grantee, uint64_t id);

    /** Pass the grant-cap itself on to another thread. */
    void grantGrantCap(Thread &grantor, Thread &grantee, uint64_t id);

    /** Remove @p thread's xcall capability for @p id. */
    void revokeXcallCap(Thread &thread, uint64_t id);

    bool hasXcallCap(const Thread &thread, uint64_t id) const;
    bool hasGrantCap(const Thread &thread, uint64_t id) const;
    /// @}

    /// @name Relay segments (paper 3.3/4.4).
    /// @{
    /**
     * Allocate a physically contiguous relay segment of @p len bytes
     * for @p process and install it in seg-list slot @p slot. The VA
     * range is guaranteed never to overlap any page-table mapping.
     * Charged as a syscall when @p core is non-null.
     */
    RelaySeg allocRelaySeg(hw::Core *core, Process &process,
                           uint64_t len, uint64_t slot);

    /** Free a relay segment owned by @p process. */
    void freeRelaySeg(Process &process, uint64_t seg_id);

    /**
     * Revoke a live relay segment out from under whoever holds it
     * (paper 4.4 "Segment Revocation"): invalidate every seg-list
     * slot naming it, scrub it out of any core's seg-reg, free the
     * frames and retire the ID. A callee holding the segment sees
     * its next access fault and its xret fail the seg-reg check.
     */
    void revokeRelaySeg(uint64_t seg_id);

    /** Look up a live segment by ID. */
    std::optional<RelaySeg> segById(uint64_t seg_id) const;

    /** Live segments allocated by (still owned by) @p pid. */
    std::vector<uint64_t> segsOwnedBy(ProcessId pid) const;
    /** Live relay page tables owned by @p pid. */
    std::vector<uint64_t> relayPtsOwnedBy(ProcessId pid) const;
    uint64_t liveSegCount() const { return liveSegs.size(); }
    uint64_t liveRelayPtCount() const { return liveRelayPts.size(); }
    /// @}

    /// @name Relay page tables (the paper's 6.2 extension).
    /// @{
    /** A non-contiguous relay region translated by a dual page table. */
    struct RelayPt
    {
        uint64_t id = 0;
        VAddr va = 0;
        uint64_t len = 0;
        Asid asid = 0;
        ProcessId owner = 0;
        std::unique_ptr<mem::PageTable> table;
        /** Scattered backing frames (one per page, not contiguous). */
        std::vector<PAddr> frames;
    };

    /**
     * Allocate a relay page table of @p len bytes backed by scattered
     * frames for @p process. Unlike relay segments, no contiguous
     * physical range is needed; unlike them, ownership transfer is a
     * kernel operation (see transferRelayPt).
     */
    RelayPt &allocRelayPt(hw::Core *core, Process &process,
                          uint64_t len);

    /**
     * Transfer ownership of relay-pt @p id to @p to. This is what the
     * hardware cannot do for a page-table-backed region: the kernel
     * revalidates the table (charged per-page) and shoots the
     * region's TLB entries down on every core.
     */
    void transferRelayPt(hw::Core *core, uint64_t id, Process &to);

    /** Translation window for MemSystem's TransContext. */
    mem::RelayPtWindow relayPtWindow(uint64_t id) const;

    const RelayPt *relayPtById(uint64_t id) const;
    /// @}

    /// @name Thread installation on a core.
    /// @{
    /** Load @p thread's saved XPC CSRs (and table regs) onto @p core. */
    void installThread(hw::Core &core, Thread &thread);
    /** Save @p core's XPC CSRs back into @p thread. */
    void saveThread(hw::Core &core, Thread &thread);
    /// @}

    /**
     * Handle the death of @p process (paper 4.2 "Application
     * Termination" and 4.4 "Segment Revocation"): invalidate its
     * linkage records in every link stack, zap its page-table root,
     * return borrowed segments and free owned ones.
     */
    void onProcessExit(Process &process);

    /** Resolve a caller's xcall-cap-reg value back to its thread
     *  (what a callee uses to authenticate callers, paper 6.1). */
    Thread *threadByCapBitmap(PAddr bitmap) const;

    /**
     * Kernel-driven unwind of the top linkage record (the paper's
     * 6.1 timeout mechanism: when a callee hangs past its budget,
     * the kernel forces control back to the caller). Restores the
     * caller's full saved state - unlike xret, no seg-reg equality
     * check, since the hung callee cannot be trusted to have
     * restored anything - and invalidates the record.
     *
     * With @p even_if_invalid the kernel also consumes a record whose
     * valid bit is gone (corruption, or the caller process died): the
     * stale caller state is restored as far as it can be trusted, and
     * a seg-reg naming a revoked segment is cleared rather than
     * reinstalled.
     * @return true if a record was unwound.
     */
    bool forceUnwind(hw::Core &core, bool even_if_invalid = false);

    /**
     * Fault injection helper: flip the valid bit of the top linkage
     * record on @p core, as a bit flip or rogue DMA would. No cost is
     * charged; this models damage, not an operation.
     * @return true if there was a record to corrupt.
     */
    bool corruptTopLinkage(hw::Core &core);

  private:
    Kernel &kernel;
    engine::XpcEngine &xpcEngine;
    PAddr tableBase = 0;
    uint64_t tableSize = engine::defaultXEntryCount;
    uint64_t nextSegId = 1;
    /** Global relay-seg VA window, disjoint from process heaps. */
    VAddr segVaNext = uint64_t(0x30) << 32;

    std::vector<XEntryInfo> entries;
    /** (thread, entry) -> holds grant capability. */
    std::set<std::pair<ThreadId, uint64_t>> grantCaps;
    std::map<uint64_t, RelaySeg> liveSegs;
    std::map<uint64_t, RelayPt> liveRelayPts;
    Asid nextRelayAsid = 0x7000;
    std::vector<Thread *> threadsManaged;

    void setCapBit(Thread &thread, uint64_t id, bool value);
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_XPC_MANAGER_HH
