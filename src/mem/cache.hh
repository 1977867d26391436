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
 * serviced by DRAM at @c memLatency; otherwise @c next must have the
 * same line size.
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
     * writeback. The per-line probe runs inline; only a miss calls
     * out, once per level it reaches.
     * @return total cycles for the access.
     */
    Cycles access(PAddr paddr, uint64_t len, bool is_write);

    /** Invalidate everything without writeback (timing state only). */
    void invalidateAll();

    Counter hits;
    Counter misses;
    Counter writebacks;

    /** Registry node; the owner names it and attaches it to a parent. */
    StatGroup stats{"cache"};

  private:
    /** A way is (tag << 2) | dirtyBit | validBit; 0 is invalid. */
    static constexpr uint64_t validBit = 1;
    static constexpr uint64_t dirtyBit = 2;

    CacheParams params;
    Cache *next;
    Cycles memLatency;
    uint32_t numSets;
    /** log2 of the line size and of the set count (both powers of 2). */
    uint32_t lineShift;
    uint32_t setShift;
    /**
     * Each set's ways, most recently used first. Only invalidateAll
     * invalidates, so the valid ways are a prefix and the last way is
     * the victim: invalid if any way is, else the LRU one.
     */
    std::vector<uint64_t> ways;

    /**
     * Look @p line_num up in its set. On a hit, move its way to the
     * front with @p dirty ORed in and return true; count nothing.
     */
    bool probe(uint64_t line_num, uint64_t dirty);

    /**
     * One line from the level above, the core's access() or the
     * miss() of the level above: a counted probe, else miss().
     */
    Cycles lineFromAbove(uint64_t line_num, uint64_t dirty);

    /**
     * Service a miss on @p line_num: count it, write a dirty victim
     * back to the next level, fetch the line from it, and install the
     * line first in its set with @p dirty. @return the miss's cycles,
     * hit latency included.
     */
    Cycles miss(uint64_t line_num, uint64_t dirty);
};

} // namespace xpc::mem

#endif // XPC_MEM_CACHE_HH
