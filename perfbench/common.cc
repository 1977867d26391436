#include "common.hh"

#include <cctype>
#include <cmath>

#include "sim/phase.hh"

namespace perfbench {

using namespace xpc;

namespace {

/** Keeps the reference loop's result observable, so the compiler
 *  cannot drop the loop. */
volatile uint64_t referenceSink;

} // namespace

double
referenceSeconds()
{
    constexpr uint64_t frames = 1 << 17;
    constexpr uint64_t sets = 1 << 17;
    constexpr int rounds = 100000;
    static std::map<uint64_t, uint64_t> frameMap;
    static std::vector<uint64_t> tags(sets * 4);
    static uint32_t table[256];
    if (frameMap.empty()) {
        for (uint64_t f = 0; f < frames; f++)
            frameMap[f * 4096] = f;
        for (uint32_t i = 0; i < 256; i++)
            table[i] = i * 0x9e3779b1u;
    }

    uint64_t x = 0x9e3779b97f4a7c15ULL;
    uint64_t acc = 0;
    const int64_t t0 = hostNs();
    for (int i = 0; i < rounds; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // An ordered-map frame lookup ...
        acc += frameMap.find((x % frames) * 4096)->second;
        // ... a 4-way tag probe with replacement on a miss ...
        uint64_t *way = &tags[((x >> 20) % sets) * 4];
        const uint64_t tag = x >> 40;
        if (way[0] != tag && way[1] != tag && way[2] != tag &&
            way[3] != tag)
            way[x & 3] = tag;
        // ... and a table-driven checksum over eight bytes.
        for (int b = 0; b < 8; b++)
            acc = table[(acc ^ (x >> (8 * b))) & 0xff] ^ (acc >> 8);
    }
    const int64_t elapsed = hostNs() - t0;
    referenceSink = acc;
    return double(elapsed) * 1e-9;
}

void
flatten(const StatGroup &group, const std::string &prefix, Snapshot &out)
{
    for (const auto &[name, c] : group.counterEntries())
        out[prefix + "." + name] = double(c->value());
    for (const auto &[name, d] : group.distributionEntries()) {
        out[prefix + "." + name + ".sum"] = d->sum();
        out[prefix + "." + name + ".count"] = double(d->count());
    }
    for (const auto &[name, h] : group.histogramEntries()) {
        out[prefix + "." + name + ".sum"] = h->sum();
        out[prefix + "." + name + ".count"] = double(h->count());
    }
    for (const StatGroup *child : group.children())
        flatten(*child, prefix + "." + child->name(), out);
}

Snapshot
snapshotLayers(core::System &sys)
{
    Snapshot s;
    flatten(sys.kern().stats, "kernel", s);
    flatten(sys.engine().stats, "engine", s);
    flatten(sys.runtime().stats, "runtime", s);
    flatten(sys.transport().stats, "transport", s);
    flatten(sys.machine().mem().stats, "mem", s);
    return s;
}

Snapshot
delta(const Snapshot &after, const Snapshot &before)
{
    Snapshot d;
    for (const auto &[key, v] : after)
        d[key] = v - at(before, key);
    return d;
}

double
at(const Snapshot &snap, const std::string &key)
{
    auto it = snap.find(key);
    return it == snap.end() ? 0 : it->second;
}

uint64_t
samplesRetained(const StatGroup &group)
{
    uint64_t n = 0;
    for (const auto &entry : group.distributionEntries())
        n += entry.second->count();
    for (const StatGroup *child : group.children())
        n += samplesRetained(*child);
    return n;
}

double
quantile(const std::vector<uint64_t> &sorted, double q)
{
    size_t rank = size_t(std::ceil(q * double(sorted.size())));
    return double(sorted[rank == 0 ? 0 : rank - 1]);
}

uint64_t
fingerprint(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

/** Sum of @p stat over every per-core group "mem.<kind><n>". */
double
perCoreSum(const Snapshot &d, const std::string &kind,
           const std::string &stat)
{
    double sum = 0;
    const std::string head = "mem." + kind;
    for (const auto &[key, v] : d) {
        if (key.compare(0, head.size(), head) != 0)
            continue;
        size_t dot = key.find('.', head.size());
        if (dot == std::string::npos || dot == head.size() ||
            key.compare(dot + 1, std::string::npos, stat) != 0)
            continue;
        bool digits = true;
        for (size_t i = head.size(); i < dot; i++)
            digits = digits && std::isdigit((unsigned char)key[i]);
        if (digits)
            sum += v;
    }
    return sum;
}

} // namespace

void
registryLayers(const Snapshot &d, uint64_t ops,
               std::map<std::string, double> &out)
{
    out["core.runtime.calls"] = at(d, "runtime.calls");
    out["core.runtime.trampoline_cycles"] =
        at(d, "runtime.phases.trampoline.sum");
    out["core.runtime.xcall_cycles"] = at(d, "runtime.phases.xcall.sum");
    out["core.runtime.xret_cycles"] = at(d, "runtime.phases.xret.sum");

    out["kernel.trap_cycles"] = at(d, "kernel.phases.trap.sum");
    out["kernel.ipc_logic_cycles"] = at(d, "kernel.phases.ipc_logic.sum");
    out["kernel.process_switch_cycles"] =
        at(d, "kernel.phases.process_switch.sum");
    out["kernel.restore_cycles"] = at(d, "kernel.phases.restore.sum");
    for (const char *c : {"fastpath_calls", "slowpath_calls", "traps",
                          "context_switches", "channel_msgs"})
        out[std::string("kernel.") + c] = at(d, std::string("kernel.") + c);

    for (const char *c : {"xcalls", "xrets", "swapsegs"})
        out[std::string("xpc.") + c] = at(d, std::string("engine.") + c);

    double l1_hits = perCoreSum(d, "l1d", "hits");
    double l1_misses = perCoreSum(d, "l1d", "misses");
    out["mem.l1.hits"] = l1_hits;
    out["mem.l1.misses"] = l1_misses;
    out["mem.l1.writebacks"] = perCoreSum(d, "l1d", "writebacks");
    out["mem.l2.hits"] = at(d, "mem.l2.hits");
    out["mem.l2.misses"] = at(d, "mem.l2.misses");
    out["mem.tlb.misses"] = perCoreSum(d, "tlb", "misses");
    out["mem.tlb.flushes"] = perCoreSum(d, "tlb", "flushes");
    for (uint32_t i = 0; i <= phaseCount; i++) {
        std::string phase =
            i < phaseCount ? phaseName(Phase(i)) : "unattributed";
        out["mem.attr." + phase + ".cycles"] =
            at(d, "mem.attr." + phase + ".cycles");
        out["mem.attr." + phase + ".walk_cycles"] =
            at(d, "mem.attr." + phase + ".walk_cycles");
    }
    out["mem.line_accesses_per_op"] =
        ops == 0 ? 0 : (l1_hits + l1_misses) / double(ops);
}

double
hostNsPerLine(core::System &sys)
{
    constexpr uint64_t pageBytes = 4096;
    constexpr uint64_t pages = 16;
    constexpr int rounds = 2048;
    mem::MemSystem &ms = sys.machine().mem();
    // A window at the top of simulated DRAM, far above anything the
    // workload allocated; each page is read and written back as is.
    const PAddr base = ms.phys().size() - pages * pageBytes;
    std::vector<uint8_t> buf(pageBytes);

    Snapshot before;
    flatten(ms.stats, "mem", before);
    int64_t t0 = hostNs();
    for (int r = 0; r < rounds; r++) {
        PAddr a = base + PAddr(r % pages) * pageBytes;
        ms.readPhys(0, a, buf.data(), pageBytes);
        ms.writePhys(0, a, buf.data(), pageBytes);
    }
    int64_t elapsed = hostNs() - t0;
    Snapshot after;
    flatten(ms.stats, "mem", after);
    Snapshot d = delta(after, before);
    double lines = perCoreSum(d, "l1d", "hits") + perCoreSum(d, "l1d", "misses");
    return lines == 0 ? 0 : double(elapsed) / lines;
}

} // namespace perfbench
