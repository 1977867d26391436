#include "cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace xpc::mem {

Cache::Cache(const CacheParams &p, Cache *n, Cycles mem_latency)
    : params(p), next(n), memLatency(mem_latency)
{
    panic_if(p.lineBytes == 0 || (p.lineBytes & (p.lineBytes - 1)) != 0,
             "cache line size must be a power of two");
    uint64_t total_lines = p.sizeBytes / p.lineBytes;
    panic_if(p.assoc == 0 || total_lines % p.assoc != 0,
             "bad cache geometry");
    numSets = uint32_t(total_lines / p.assoc);
    panic_if((numSets & (numSets - 1)) != 0,
             "cache set count must be a power of two, got %u", numSets);
    lineShift = uint32_t(std::countr_zero(p.lineBytes));
    setShift = uint32_t(std::countr_zero(numSets));
    lines.resize(total_lines);
    stats.addCounter("hits", &hits);
    stats.addCounter("misses", &misses);
    stats.addCounter("writebacks", &writebacks);
}

Cycles
Cache::accessLine(uint64_t line_addr, bool is_write)
{
    uint64_t line_num = line_addr >> lineShift;
    uint64_t set_idx = line_num & (numSets - 1);
    uint64_t tag = line_num >> setShift;
    Line *ways = &lines[set_idx * params.assoc];

    for (uint32_t i = 0; i < params.assoc; i++) {
        Line &l = ways[i];
        if (l.valid && l.tag == tag) {
            hits.inc();
            l.lruStamp = ++clock;
            l.dirty |= is_write;
            return params.hitLatency;
        }
    }

    // Miss: pick an LRU victim, write it back if dirty, fill.
    misses.inc();
    Line *victim = &ways[0];
    for (uint32_t i = 0; i < params.assoc; i++) {
        Line &l = ways[i];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lruStamp < victim->lruStamp)
            victim = &l;
    }

    Cycles cost = params.hitLatency;
    if (victim->valid && victim->dirty) {
        writebacks.inc();
        uint64_t victim_addr = ((victim->tag << setShift) | set_idx)
                               << lineShift;
        cost += next ? next->access(victim_addr, params.lineBytes, true)
                     : memLatency;
    }
    cost += next ? next->access(line_addr, params.lineBytes, false)
                 : memLatency;

    *victim = Line{true, is_write, tag, ++clock};
    return cost;
}

Cycles
Cache::access(PAddr paddr, uint64_t len, bool is_write)
{
    if (len == 0)
        return Cycles(0);
    uint64_t first = paddr >> lineShift;
    uint64_t last = (paddr + len - 1) >> lineShift;
    Cycles total(0);
    for (uint64_t line = first; line <= last; line++)
        total += accessLine(line << lineShift, is_write);
    return total;
}

void
Cache::invalidateAll()
{
    for (auto &l : lines)
        l = Line{};
}

} // namespace xpc::mem
