/**
 * @file
 * Shared pieces of the perfbench program: the host clock, flat views of
 * the simulator's stat registry, and the per-repeat result every
 * workload returns to main().
 *
 * One *repeat* is a full set-up (fresh System, services, preload)
 * followed by one measured phase of a fixed, seed-determined size.
 * Repeats of the same seed must agree on every simulated number; only
 * the host timings may differ.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/stats.hh"

namespace perfbench {

/** Host wall clock in nanoseconds (monotonic, arbitrary epoch). */
inline int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Host wall clock in seconds (monotonic, arbitrary epoch). */
inline double
hostSeconds()
{
    return double(hostNs()) * 1e-9;
}

/**
 * Host-speed reference: a fixed loop of the kinds of work the
 * simulator's hot paths do (ordered-map lookups, set-associative tag
 * probes, table-driven checksums). It uses no simulator code, so no
 * change to src/ can move it; only the host's own speed does.
 * @return its host seconds
 */
double referenceSeconds();

/** referenceSeconds() on the host the benchmark was tuned on, at its
 *  usual speed. Host metrics are scaled to this speed. */
constexpr double referenceNominalS = 0.045;

/** Flat "group.sub.stat" -> value view of a stat registry subtree. */
using Snapshot = std::map<std::string, double>;

/**
 * Flatten @p group under @p prefix: counters by name, distributions and
 * histograms as "<name>.sum" and "<name>.count", child groups by their
 * own names.
 */
void flatten(const xpc::StatGroup &group, const std::string &prefix,
             Snapshot &out);

/**
 * The layers of @p sys under stable prefixes: "kernel" (whichever
 * personality), "engine", "runtime", "transport" and "mem".
 */
Snapshot snapshotLayers(xpc::core::System &sys);

/** Per-key @p after minus @p before (keys of @p after). */
Snapshot delta(const Snapshot &after, const Snapshot &before);

/** @p snap[@p key], or 0 when the stat is absent. */
double at(const Snapshot &snap, const std::string &key);

/** Samples held by every Distribution in @p group's subtree. */
uint64_t samplesRetained(const xpc::StatGroup &group);

/** Nearest-rank @p q quantile of ascending @p sorted (non-empty). */
double quantile(const std::vector<uint64_t> &sorted, double q);

/** FNV-1a over @p text: a compact determinism fingerprint. */
uint64_t fingerprint(const std::string &text);

/** Add the registry-derived core/kernel/xpc/mem layer metrics of the
 *  measured-phase delta @p d (@p ops measured ops) to @p out. */
void registryLayers(const Snapshot &d, uint64_t ops,
                    std::map<std::string, double> &out);

/**
 * Host cost of one simulated cache-line access: time 4 KiB
 * MemSystem::readPhys/writePhys round trips on @p sys's own machine
 * and divide by the L1 line accesses they caused. Run it after the
 * measured phase; it perturbs the simulated state.
 */
double hostNsPerLine(xpc::core::System &sys);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its last repeat's spans ("" = off). */
    std::string spansOut;
};

/** One recorded span; see spans.hh. */
struct Span
{
    uint32_t name = 0;  ///< index into the recorder's name table
    int32_t parent = -1; ///< enclosing span, -1 for an op's root
    uint32_t op = 0;    ///< measured op the span belongs to
    uint64_t simStart = 0;
    uint64_t simEnd = 0;
    int64_t hostStart = 0;
    int64_t hostEnd = 0;
};

/** What one repeat measured. */
struct Repeat
{
    double setupS = 0;    ///< host seconds of set-up
    double measuredS = 0; ///< host seconds of the measured phase
    /** referenceSeconds() around this repeat over referenceNominalS:
     *  above 1 when the host ran slower than nominal. */
    double hostScale = 1;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Ops whose result disagreed with the expected value. */
    uint64_t wrong = 0;
    /** Simulated end-to-end metrics: a pure function of the seed. */
    std::map<std::string, double> sim;
    /** Per-layer metrics (traced repeats only). */
    std::map<std::string, double> layer;
    /** Every simulated statistic, for the repeat-identity check. */
    std::string signature;
    /** Non-empty when the traced cycle ledger did not balance. */
    std::string ledgerError;
    /** The traced repeat's spans and their name table. */
    std::vector<Span> spans;
    std::vector<std::string> spanNames;
    /** Human-readable ledger rows (traced YCSB repeats). */
    std::vector<std::string> ledgerRows;
};

/** YCSB over MiniDb (ycsb_write_xpc, ycsb_read_zircon). */
Repeat runYcsb(const Options &opts, bool traced);

/** The open-loop tenant mesh (mesh_open_sel4). */
Repeat runMesh(const Options &opts, bool traced);

/** Deadline-free saturated goodput of the mesh, requests/Mcycle. */
double meshCapacity(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
