/**
 * @file
 * Set-associative TLB with optional ASID tagging.
 *
 * The tagged/untagged distinction matters to the paper twice: Rocket
 * has no tagged TLB, so an xcall pays roughly 40 cycles of flush and
 * refill penalty (Figure 5), and the ARM port pays 58 cycles for the
 * TTBR0 update barriers (Table 5). Untagged mode flushes everything on
 * address-space switch; tagged mode keeps entries alive across
 * switches and matches on ASID.
 */

#ifndef XPC_MEM_TLB_HH
#define XPC_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "mem/page_table.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace xpc::mem {

/** One cached translation. */
struct TlbEntry
{
    /** The entry is valid only while this equals its Tlb's flush
     *  epoch, which starts at 1, so 0 marks an entry invalid. */
    uint64_t epoch = 0;
    Asid asid = 0;
    uint64_t vpn = 0;
    uint64_t ppn = 0;
    Perms perms;
    uint64_t lruStamp = 0;
};

/** Set-associative translation lookaside buffer. */
class Tlb
{
  public:
    /**
     * @param entries total entry count (power of two)
     * @param assoc   ways per set
     * @param tagged  when false, switching ASIDs requires flushAll()
     */
    Tlb(uint32_t entries, uint32_t assoc, bool tagged);

    bool tagged() const { return isTagged; }

    /**
     * Look up @p vaddr for @p asid.
     * @return pointer to the hit entry, or nullptr on miss.
     */
    const TlbEntry *lookup(Asid asid, VAddr vaddr);

    /** Install a translation after a successful page walk. */
    void insert(Asid asid, VAddr vaddr, PAddr paddr, Perms perms);

    /** Drop every entry (untagged address-space switch) in O(1), by
     *  advancing the flush epoch. */
    void flushAll();

    /** Drop entries belonging to @p asid (unmap/shootdown). */
    void flushAsid(Asid asid);

    /** Drop the single translation for (asid, vaddr) if present. */
    void flushPage(Asid asid, VAddr vaddr);

    Counter hits;
    Counter misses;
    Counter flushes;

    /** Registry node; the owner names it and attaches it to a parent. */
    StatGroup stats{"tlb"};

  private:
    uint32_t numSets;
    uint32_t assoc;
    bool isTagged;
    uint64_t clock = 0;
    uint64_t epoch = 1;
    std::vector<TlbEntry> entriesVec;

    TlbEntry *set(uint64_t vpn);
    bool valid(const TlbEntry &e) const { return e.epoch == epoch; }
};

} // namespace xpc::mem

#endif // XPC_MEM_TLB_HH
