#include "cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace xpc::mem {

namespace {

/** Put @p way first in @p set, shifting ways [0, @p i) back over way i. */
void
moveToFront(uint64_t *set, uint32_t i, uint64_t way)
{
    for (; i > 0; i--)
        set[i] = set[i - 1];
    set[0] = way;
}

} // namespace

Cache::Cache(const CacheParams &p, Cache *n, Cycles mem_latency)
    : params(p), next(n), memLatency(mem_latency)
{
    panic_if(p.lineBytes == 0 || (p.lineBytes & (p.lineBytes - 1)) != 0,
             "cache line size must be a power of two");
    panic_if(n && n->params.lineBytes != p.lineBytes,
             "next cache level has %u-byte lines, this one %u",
             n->params.lineBytes, p.lineBytes);
    uint64_t total_lines = p.sizeBytes / p.lineBytes;
    panic_if(p.assoc == 0 || total_lines == 0 ||
                 total_lines % p.assoc != 0,
             "bad cache geometry");
    numSets = uint32_t(total_lines / p.assoc);
    panic_if((numSets & (numSets - 1)) != 0,
             "cache set count must be a power of two, got %u", numSets);
    lineShift = uint32_t(std::countr_zero(p.lineBytes));
    setShift = uint32_t(std::countr_zero(numSets));
    ways.resize(total_lines);
    stats.addCounter("hits", &hits);
    stats.addCounter("misses", &misses);
    stats.addCounter("writebacks", &writebacks);
}

inline bool
Cache::probe(uint64_t line_num, uint64_t dirty)
{
    uint64_t key = (line_num >> setShift) << 2 | validBit;
    uint64_t *set = &ways[(line_num & (numSets - 1)) * params.assoc];
    for (uint32_t i = 0; i < params.assoc; i++) {
        if ((set[i] & ~dirtyBit) == key) {
            moveToFront(set, i, set[i] | dirty);
            return true;
        }
    }
    return false;
}

inline Cycles
Cache::lineFromAbove(uint64_t line_num, uint64_t dirty)
{
    if (probe(line_num, dirty)) {
        hits.inc();
        return params.hitLatency;
    }
    return miss(line_num, dirty);
}

Cycles
Cache::miss(uint64_t line_num, uint64_t dirty)
{
    // Write back the last way if dirty, then fill over it.
    misses.inc();
    uint64_t set_idx = line_num & (numSets - 1);
    uint64_t *set = &ways[set_idx * params.assoc];
    uint64_t victim = set[params.assoc - 1];
    Cycles cost = params.hitLatency;
    if (victim & dirtyBit) {
        writebacks.inc();
        uint64_t victim_line = (victim >> 2) << setShift | set_idx;
        cost += next ? next->lineFromAbove(victim_line, dirtyBit)
                     : memLatency;
    }
    cost += next ? next->lineFromAbove(line_num, 0) : memLatency;
    uint64_t key = (line_num >> setShift) << 2 | validBit;
    moveToFront(set, params.assoc - 1, key | dirty);
    return cost;
}

Cycles
Cache::access(PAddr paddr, uint64_t len, bool is_write)
{
    if (len == 0)
        return Cycles(0);
    uint64_t first = paddr >> lineShift;
    uint64_t last = (paddr + len - 1) >> lineShift;
    uint64_t dirty = is_write ? dirtyBit : 0;
    Cycles total(0);
    for (uint64_t line = first; line <= last; line++)
        total += lineFromAbove(line, dirty);
    return total;
}

void
Cache::invalidateAll()
{
    std::fill(ways.begin(), ways.end(), 0);
}

} // namespace xpc::mem
