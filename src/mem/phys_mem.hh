/**
 * @file
 * Sparse simulated physical memory and a physical frame allocator.
 *
 * PhysMem holds the functional state of DRAM: every byte a simulated
 * program reads or writes lives here. Timing is charged elsewhere (by
 * the cache hierarchy in MemSystem); PhysMem itself is purely
 * functional so that timing bugs can never corrupt data.
 */

#ifndef XPC_MEM_PHYS_MEM_HH
#define XPC_MEM_PHYS_MEM_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace xpc::mem {

/**
 * Functional backing store for simulated DRAM: a flat table of frame
 * pointers indexed by frame number (8 B of host memory per 4 KiB
 * frame), whose frames are allocated and zero-filled on first touch.
 */
class PhysMem
{
  public:
    /** @param size_bytes total DRAM capacity (default 1 GiB). */
    explicit PhysMem(uint64_t size_bytes = uint64_t(1) << 30);

    uint64_t size() const { return memSize; }

    /** Copy @p len bytes at physical @p addr into @p dst. */
    void read(PAddr addr, void *dst, uint64_t len) const;

    /** Copy @p len bytes from @p src into physical @p addr. */
    void write(PAddr addr, const void *src, uint64_t len);

    /** Read a naturally aligned 64-bit word. */
    uint64_t read64(PAddr addr) const;

    /** Write a naturally aligned 64-bit word. */
    void write64(PAddr addr, uint64_t value);

    /** Zero-fill @p len bytes starting at @p addr. */
    void clear(PAddr addr, uint64_t len);

  private:
    uint64_t memSize;
    /** Lazily allocated 4 KiB frames indexed by frame number. */
    mutable std::vector<std::unique_ptr<uint8_t[]>> frames;

    uint8_t *framePtr(PAddr addr) const;
    void checkRange(PAddr addr, uint64_t len) const;
};

/**
 * First-fit physical frame allocator.
 *
 * Supports multi-frame contiguous allocations, which relay segments
 * require (a relay-seg must be physically contiguous, paper section 3.3),
 * and coalescing free so terminated processes return their segments.
 */
class PhysAllocator
{
  public:
    /**
     * @param base first allocatable physical address (page aligned)
     * @param size bytes under management
     */
    PhysAllocator(PAddr base, uint64_t size);

    /**
     * Allocate @p npages contiguous frames.
     * @return base physical address, or 0 on exhaustion/fragmentation.
     */
    PAddr allocFrames(uint64_t npages);

    /** Return a previously allocated range. */
    void freeFrames(PAddr base, uint64_t npages);

    /** @return total free bytes (may be fragmented). */
    uint64_t freeBytes() const;

    /** @return size of the largest single free extent in bytes. */
    uint64_t largestExtent() const;

  private:
    /** Free extents as [base -> length), sorted and coalesced. */
    std::map<PAddr, uint64_t> freeList;
};

} // namespace xpc::mem

#endif // XPC_MEM_PHYS_MEM_HH
