#include "tlb.hh"

#include "sim/logging.hh"

namespace xpc::mem {

Tlb::Tlb(uint32_t entries, uint32_t a, bool t)
    : numSets(entries / a), assoc(a), isTagged(t),
      entriesVec(entries)
{
    panic_if(entries == 0 || a == 0 || entries % a != 0,
             "bad TLB geometry: %u entries, %u ways", entries, a);
    panic_if((numSets & (numSets - 1)) != 0,
             "TLB set count must be a power of two, got %u", numSets);
    stats.addCounter("hits", &hits);
    stats.addCounter("misses", &misses);
    stats.addCounter("flushes", &flushes);
}

TlbEntry *
Tlb::set(uint64_t vpn)
{
    return &entriesVec[(vpn & (numSets - 1)) * assoc];
}

const TlbEntry *
Tlb::lookup(Asid asid, VAddr vaddr)
{
    uint64_t vpn = vaddr >> pageShift;
    TlbEntry *ways = set(vpn);
    for (uint32_t i = 0; i < assoc; i++) {
        TlbEntry &e = ways[i];
        // The ASID is always compared: on untagged hardware the
        // kernel flushes on every space switch, so a mismatched entry
        // could never be observed; comparing here keeps the
        // functional model correct even mid-copy between spaces.
        if (valid(e) && e.vpn == vpn && e.asid == asid) {
            e.lruStamp = ++clock;
            hits.inc();
            return &e;
        }
    }
    misses.inc();
    return nullptr;
}

void
Tlb::insert(Asid asid, VAddr vaddr, PAddr paddr, Perms perms)
{
    uint64_t vpn = vaddr >> pageShift;
    TlbEntry *ways = set(vpn);
    // Refill of an already-present translation updates in place so a
    // set never holds two entries for one (asid, vpn).
    for (uint32_t i = 0; i < assoc; i++) {
        TlbEntry &e = ways[i];
        if (valid(e) && e.vpn == vpn && e.asid == asid) {
            e.ppn = paddr >> pageShift;
            e.perms = perms;
            e.lruStamp = ++clock;
            return;
        }
    }
    TlbEntry *victim = &ways[0];
    for (uint32_t i = 0; i < assoc; i++) {
        TlbEntry &e = ways[i];
        if (!valid(e)) {
            victim = &e;
            break;
        }
        if (e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    *victim = TlbEntry{epoch, asid, vpn, paddr >> pageShift, perms,
                       ++clock};
}

void
Tlb::flushAll()
{
    epoch++;
    flushes.inc();
}

void
Tlb::flushAsid(Asid asid)
{
    for (auto &e : entriesVec) {
        if (valid(e) && e.asid == asid)
            e.epoch = 0;
    }
    flushes.inc();
}

void
Tlb::flushPage(Asid asid, VAddr vaddr)
{
    uint64_t vpn = vaddr >> pageShift;
    TlbEntry *ways = set(vpn);
    for (uint32_t i = 0; i < assoc; i++) {
        TlbEntry &e = ways[i];
        if (valid(e) && e.vpn == vpn && e.asid == asid)
            e.epoch = 0;
    }
}

} // namespace xpc::mem
