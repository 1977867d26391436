#include "mem_system.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace xpc::mem {

namespace {

/** An injected fault costs what detecting a real one does: the
 *  translation attempt plus the faulting access reaching memory. */
AccessResult
injectedFault(VAddr vaddr, Cycles latency)
{
    AccessResult res;
    res.ok = false;
    res.cycles = latency;
    res.fault = FaultKind::Injected;
    res.faultAddr = vaddr;
    return res;
}

} // namespace

MemAttribution::MemAttribution(StatGroup *parent,
                               const req::RequestContext &requests)
    : ctx(requests)
{
    group.setParent(parent);
    auto reg = [&](const std::string &prefix, Row &r) {
        group.addCounter(prefix + ".accesses", &r.accesses);
        group.addCounter(prefix + ".cycles", &r.cycles);
        group.addCounter(prefix + ".l1_misses", &r.l1Misses);
        group.addCounter(prefix + ".tlb_walks", &r.tlbWalks);
        group.addCounter(prefix + ".walk_cycles", &r.walkCycles);
    };
    for (uint32_t i = 0; i < phaseCount; i++)
        reg(phaseName(Phase(i)), rows[i]);
    reg("unattributed", rows[phaseCount]);
}

MemSystem::MemSystem(PhysMem &phys, const MemParams &params,
                     uint32_t ncores, req::RequestContext &requests,
                     trace::Tracer &tracer)
    : attr(&stats, requests), requests_(requests), tracer_(tracer),
      physMem(phys), memParams(params)
{
    panic_if(ncores == 0, "MemSystem needs at least one core");
    l2 = std::make_unique<Cache>(params.l2, nullptr, params.dramLatency);
    l2->stats.setName("l2");
    l2->stats.setParent(&stats);
    for (uint32_t i = 0; i < ncores; i++) {
        l1ds.push_back(
            std::make_unique<Cache>(params.l1d, l2.get(),
                                    params.dramLatency));
        l1ds.back()->stats.setName("l1d" + std::to_string(i));
        l1ds.back()->stats.setParent(&stats);
        tlbs.push_back(std::make_unique<Tlb>(
            params.tlbEntries, params.tlbAssoc, params.taggedTlb));
        tlbs.back()->stats.setName("tlb" + std::to_string(i));
        tlbs.back()->stats.setParent(&stats);
    }
}

Cycles
MemSystem::issueCost(uint64_t len) const
{
    uint64_t wb = memParams.wordBytes;
    uint64_t words = (len + wb - 1) / wb;
    return Cycles(memParams.perWordIssue.value() * words);
}

AccessResult
MemSystem::translate(CoreId core, const TransContext &ctx, VAddr vaddr,
                     bool is_write, PAddr *out)
{
    AccessResult res;
    auto fault = [&](FaultKind kind) {
        res.fault = kind;
        res.faultAddr = vaddr;
        return res;
    };

    // Relay-seg window has priority over the page table (paper 3.3).
    if (ctx.seg) {
        if (auto paddr = ctx.seg->translate(vaddr)) {
            bool allowed = is_write ? ctx.seg->write : ctx.seg->read;
            if (!allowed)
                return fault(FaultKind::SegPermissionFault);
            res.ok = true;
            *out = *paddr;
            return res;
        }
    }

    // Relay page table (paper 6.2): selected by VA range, walked and
    // TLB-cached like the process's own table but under its own ASID.
    const PageTable *pt = ctx.pt;
    Asid asid = ctx.asid;
    if (ctx.relayPt && ctx.relayPt->covers(vaddr)) {
        pt = ctx.relayPt->pt;
        asid = ctx.relayPt->asid;
    }
    panic_if(!pt, "translate with neither seg window nor page table");

    Perms req;
    req.read = !is_write;
    req.write = is_write;
    req.user = ctx.user;
    if (const TlbEntry *e = tlb(core).lookup(asid, vaddr)) {
        if (!e->perms.allows(req))
            return fault(FaultKind::ProtectionFault);
        res.ok = true;
        *out = (e->ppn << pageShift) | (vaddr & pageMask);
        return res;
    }

    // TLB miss: hardware page walk, PTE fetches go through the caches.
    WalkResult walk = pt->walk(vaddr);
    res.cycles += memParams.walkOverhead;
    for (int i = 0; i < walk.levels; i++)
        res.cycles += l1(core).access(walk.pteAddrs[i], 8, false);
    attr.walk(res.cycles.value());
    if (tracer_.enabled())
        tracer_.instantNow("mem", "tlb_miss_fill", core, {},
                           res.cycles.value());
    if (!walk.valid)
        return fault(FaultKind::PageFault);
    if (!walk.perms.allows(req))
        return fault(FaultKind::ProtectionFault);

    tlb(core).insert(asid, vaddr, walk.paddr, walk.perms);
    res.ok = true;
    *out = walk.paddr;
    return res;
}

Cycles
MemSystem::charge(CoreId core, PAddr paddr, uint64_t len, bool is_write,
                  bool &l1_missed)
{
    uint64_t miss0 = l1(core).misses.value();
    Cycles c = l1(core).access(paddr, len, is_write);
    c += issueCost(len);
    l1_missed = l1(core).misses.value() != miss0;
    attr.access(c.value(), l1_missed);
    return c;
}

template <typename Byte>
AccessResult
MemSystem::access(CoreId core, const TransContext &ctx, VAddr vaddr,
                  Byte *buf, uint64_t len)
{
    constexpr bool isWrite = std::is_const_v<Byte>;
    if (injector && injector->consumeMemFault())
        return injectedFault(vaddr, memParams.dramLatency);
    AccessResult total;
    total.ok = true;
    while (len > 0) {
        uint64_t chunk = std::min(len, pageSize - (vaddr & pageMask));
        PAddr paddr = 0;
        AccessResult tr = translate(core, ctx, vaddr, isWrite, &paddr);
        total.cycles += tr.cycles;
        if (!tr.ok) {
            total.ok = false;
            total.fault = tr.fault;
            total.faultAddr = tr.faultAddr;
            return total;
        }
        bool missed = false;
        Cycles data = charge(core, paddr, chunk, isWrite, missed);
        total.cycles += data;
        if (missed && tracer_.enabled())
            tracer_.instantNow("mem", "l1_miss_fill", core, {},
                               data.value());
        if constexpr (isWrite)
            physMem.write(paddr, buf, chunk);
        else
            physMem.read(paddr, buf, chunk);
        vaddr += chunk;
        buf += chunk;
        len -= chunk;
    }
    return total;
}

AccessResult
MemSystem::read(CoreId core, const TransContext &ctx, VAddr vaddr,
                void *dst, uint64_t len)
{
    return access(core, ctx, vaddr, static_cast<uint8_t *>(dst), len);
}

AccessResult
MemSystem::write(CoreId core, const TransContext &ctx, VAddr vaddr,
                 const void *src, uint64_t len)
{
    return access(core, ctx, vaddr, static_cast<const uint8_t *>(src),
                  len);
}

AccessResult
MemSystem::copy(CoreId core, const TransContext &src_ctx, VAddr src,
                const TransContext &dst_ctx, VAddr dst, uint64_t len)
{
    AccessResult total;
    total.ok = true;
    // One page on the stack, left uninitialized: a read that returns ok
    // has filled its chunk, and only that chunk is written on.
    uint8_t buf[pageSize];
    while (len > 0) {
        uint64_t chunk = std::min<uint64_t>(len, sizeof(buf));
        AccessResult r = read(core, src_ctx, src, buf, chunk);
        total.cycles += r.cycles;
        if (!r.ok) {
            total.ok = false;
            total.fault = r.fault;
            total.faultAddr = r.faultAddr;
            return total;
        }
        AccessResult w = write(core, dst_ctx, dst, buf, chunk);
        total.cycles += w.cycles;
        if (!w.ok) {
            total.ok = false;
            total.fault = w.fault;
            total.faultAddr = w.faultAddr;
            return total;
        }
        src += chunk;
        dst += chunk;
        len -= chunk;
    }
    return total;
}

Cycles
MemSystem::readPhys(CoreId core, PAddr paddr, void *dst, uint64_t len)
{
    bool missed = false;
    Cycles c = charge(core, paddr, len, false, missed);
    physMem.read(paddr, dst, len);
    return c;
}

Cycles
MemSystem::writePhys(CoreId core, PAddr paddr, const void *src,
                     uint64_t len)
{
    bool missed = false;
    Cycles c = charge(core, paddr, len, true, missed);
    physMem.write(paddr, src, len);
    return c;
}

} // namespace xpc::mem
