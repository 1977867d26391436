/**
 * @file
 * Timing-only write-back cache hierarchy.
 *
 * Functional data lives exclusively in PhysMem; caches track tags,
 * dirtiness and LRU order so the latency of a physical access depends
 * on real reuse in the workload. Each core owns a private L1D; all
 * cores share an L2 that misses to a flat-latency DRAM model. The
 * hierarchy is built by MemSystem from a MachineConfig.
 */

#ifndef XPC_MEM_CACHE_HH
#define XPC_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace xpc::mem {

/** Geometry and latency of one cache level. */
struct CacheParams
{
    uint64_t sizeBytes;
    uint32_t lineBytes;
    uint32_t assoc;
    Cycles hitLatency;
};

/**
 * One level of a timing cache. When @c next is null, a miss is
 * serviced by DRAM at @c memLatency.
 */
class Cache
{
  public:
    /**
     * @param params     geometry and hit latency
     * @param next       next cache level, or nullptr for DRAM-backed
     * @param mem_latency DRAM access latency used when next is null
     */
    Cache(const CacheParams &params, Cache *next, Cycles mem_latency);

    /**
     * Access [@p paddr, @p paddr + @p len). Touches every line in the
     * range; each line hit charges the hit latency, each miss
     * additionally charges the fill from below plus any dirty
     * writeback.
     * @return total cycles for the access.
     */
    Cycles access(PAddr paddr, uint64_t len, bool is_write);

    /** Invalidate everything without writeback (timing state only). */
    void invalidateAll();

    uint32_t lineSize() const { return params.lineBytes; }

    Counter hits;
    Counter misses;
    Counter writebacks;

    /** Registry node; the owner names it and attaches it to a parent. */
    StatGroup stats{"cache"};

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
    };

    CacheParams params;
    Cache *next;
    Cycles memLatency;
    uint32_t numSets;
    /** log2 of the line size and of the set count (both powers of 2). */
    uint32_t lineShift;
    uint32_t setShift;
    uint64_t clock = 0;
    std::vector<Line> lines;

    Cycles accessLine(uint64_t line_addr, bool is_write);
};

} // namespace xpc::mem

#endif // XPC_MEM_CACHE_HH
