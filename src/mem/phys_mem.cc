#include "phys_mem.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xpc::mem {

PhysMem::PhysMem(uint64_t size_bytes) : memSize(size_bytes)
{
    panic_if(!pageAligned(size_bytes), "PhysMem size must be page aligned");
    frames.resize(size_bytes >> pageShift);
}

void
PhysMem::checkRange(PAddr addr, uint64_t len) const
{
    panic_if(addr + len > memSize || addr + len < addr,
             "physical access [%#lx, %#lx) outside DRAM of %#lx bytes",
             (unsigned long)addr, (unsigned long)(addr + len),
             (unsigned long)memSize);
}

uint8_t *
PhysMem::framePtr(PAddr addr) const
{
    auto &frame = frames[addr >> pageShift];
    if (!frame)
        frame = std::make_unique<uint8_t[]>(pageSize); // zero-filled
    return frame.get();
}

void
PhysMem::read(PAddr addr, void *dst, uint64_t len) const
{
    checkRange(addr, len);
    auto *out = static_cast<uint8_t *>(dst);
    while (len > 0) {
        uint64_t off = addr & pageMask;
        uint64_t chunk = std::min(len, pageSize - off);
        std::memcpy(out, framePtr(addr) + off, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PhysMem::write(PAddr addr, const void *src, uint64_t len)
{
    checkRange(addr, len);
    auto *in = static_cast<const uint8_t *>(src);
    while (len > 0) {
        uint64_t off = addr & pageMask;
        uint64_t chunk = std::min(len, pageSize - off);
        std::memcpy(framePtr(addr) + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

uint64_t
PhysMem::read64(PAddr addr) const
{
    panic_if(addr % 8 != 0, "unaligned read64 at %#lx",
             (unsigned long)addr);
    checkRange(addr, sizeof(uint64_t));
    // Aligned, so the word never straddles a frame.
    uint64_t value;
    std::memcpy(&value, framePtr(addr) + (addr & pageMask), sizeof(value));
    return value;
}

void
PhysMem::write64(PAddr addr, uint64_t value)
{
    panic_if(addr % 8 != 0, "unaligned write64 at %#lx",
             (unsigned long)addr);
    checkRange(addr, sizeof(uint64_t));
    std::memcpy(framePtr(addr) + (addr & pageMask), &value, sizeof(value));
}

void
PhysMem::clear(PAddr addr, uint64_t len)
{
    checkRange(addr, len);
    while (len > 0) {
        uint64_t off = addr & pageMask;
        uint64_t chunk = std::min(len, pageSize - off);
        std::memset(framePtr(addr) + off, 0, chunk);
        addr += chunk;
        len -= chunk;
    }
}

PhysAllocator::PhysAllocator(PAddr base, uint64_t size)
{
    panic_if(!pageAligned(base) || !pageAligned(size),
             "allocator range must be page aligned");
    if (size > 0)
        freeList[base] = size;
}

PAddr
PhysAllocator::allocFrames(uint64_t npages)
{
    panic_if(npages == 0, "allocFrames(0)");
    uint64_t want = npages * pageSize;
    for (auto it = freeList.begin(); it != freeList.end(); ++it) {
        if (it->second >= want) {
            PAddr base = it->first;
            uint64_t remain = it->second - want;
            freeList.erase(it);
            if (remain > 0)
                freeList[base + want] = remain;
            return base;
        }
    }
    return 0;
}

void
PhysAllocator::freeFrames(PAddr base, uint64_t npages)
{
    panic_if(!pageAligned(base), "freeFrames of unaligned base");
    uint64_t len = npages * pageSize;
    auto [it, fresh] = freeList.emplace(base, len);
    panic_if(!fresh, "double free of frame %#lx", (unsigned long)base);

    // Coalesce with successor, then predecessor.
    auto next = std::next(it);
    if (next != freeList.end() && it->first + it->second == next->first) {
        it->second += next->second;
        freeList.erase(next);
    }
    if (it != freeList.begin()) {
        auto prev = std::prev(it);
        panic_if(prev->first + prev->second > it->first,
                 "freeFrames overlaps live allocation at %#lx",
                 (unsigned long)base);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            freeList.erase(it);
        }
    }
}

uint64_t
PhysAllocator::freeBytes() const
{
    uint64_t total = 0;
    for (const auto &[base, len] : freeList)
        total += len;
    return total;
}

uint64_t
PhysAllocator::largestExtent() const
{
    uint64_t best = 0;
    for (const auto &[base, len] : freeList)
        best = std::max(best, len);
    return best;
}

} // namespace xpc::mem
