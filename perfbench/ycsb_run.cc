/**
 * @file
 * The YCSB workloads: MiniDb (the Sqlite stand-in of the paper's
 * Figure 8) over FsServer (xv6fs) and BlockDeviceServer, driven by one
 * closed-loop client on one simulated core.
 *
 *   ycsb_write_xpc    YCSB-A's operations at 40% read / 60% update on
 *                     seL4-XPC, Rocket-U500 machine (at 50/50 the
 *                     median op sits between the 14k-cycle cached
 *                     reads and the 200k-cycle journaled updates and
 *                     flips between them with the seed);
 *   ycsb_read_zircon  YCSB-C (100% read) on Zircon, lowRISC-KC705.
 *
 * Both use 1000 records of 1000 B, Zipfian keys (theta 0.99), the
 * default rollback journal and a 64-page MiniDb cache, so reads reach
 * the FS server. A shadow copy of the table checks every read.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "apps/minidb/minidb.hh"
#include "common.hh"
#include "core/recording_transport.hh"
#include "services/block_device.hh"
#include "services/fs_server.hh"
#include "sim/random.hh"
#include "spans.hh"

namespace perfbench {

using namespace xpc;

namespace {

constexpr uint64_t records = 1000;
constexpr uint32_t valueBytes = 1000;
constexpr uint32_t cachePages = 64;
constexpr uint64_t diskBlocks = 8192;

struct YcsbSpec
{
    core::SystemFlavor flavor;
    bool kc705; ///< lowRISC-KC705 machine, else Rocket-U500
    double readFraction;
    uint64_t ops; ///< measured ops per repeat
};

YcsbSpec
specFor(const std::string &workload)
{
    if (workload == "ycsb_write_xpc")
        return {core::SystemFlavor::Sel4Xpc, false, 0.4, 10000};
    return {core::SystemFlavor::Zircon, true, 1.0, 40000};
}

std::string
keyFor(uint64_t n)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%016llu", (unsigned long long)n);
    return buf;
}

/** Value of write number @p version: its first 8 bytes hold the
 *  version, so a stale read never matches the shadow copy. */
void
fillValue(std::vector<uint8_t> &v, uint64_t version)
{
    for (size_t i = 0; i < v.size(); i++)
        v[i] = i < 8 ? uint8_t(version >> (8 * i))
                     : uint8_t(version * 131 + i * 7);
}

/** A fresh System with the fs stack and an open database. Members
 *  are declared so that services die before the transport they use. */
struct Stack
{
    std::unique_ptr<core::System> sys;
    std::unique_ptr<SpanRecorder> spans;
    SpanTransport *spanTr = nullptr;
    std::unique_ptr<core::Transport> tr;
    std::unique_ptr<services::BlockDeviceServer> dev;
    std::unique_ptr<services::FsServer> fs;
    std::unique_ptr<apps::MiniDb> db;
};

void
build(Stack &st, const YcsbSpec &spec, bool traced)
{
    core::SystemOptions so;
    so.flavor = spec.flavor;
    so.machine = spec.kc705 ? hw::lowRiscKc705() : hw::rocketU500();
    st.sys = std::make_unique<core::System>(so);
    if (traced) {
        st.spans = std::make_unique<SpanRecorder>(st.sys->core(0));
        auto span_tr =
            std::make_unique<SpanTransport>(st.sys->transport(), *st.spans);
        st.spanTr = span_tr.get();
        st.tr = std::move(span_tr);
    } else {
        st.tr =
            std::make_unique<core::RecordingTransport>(st.sys->transport());
    }
    kernel::Thread &dev_t = st.sys->spawn("blockdev");
    kernel::Thread &fs_t = st.sys->spawn("fs");
    kernel::Thread &client = st.sys->spawn("client");
    st.dev = std::make_unique<services::BlockDeviceServer>(*st.tr, dev_t,
                                                           diskBlocks);
    st.tr->connect(fs_t, st.dev->id());
    st.fs = std::make_unique<services::FsServer>(*st.tr, fs_t,
                                                 st.dev->id(), diskBlocks);
    st.tr->connect(client, st.fs->id());
    st.db = std::make_unique<apps::MiniDb>(*st.tr, st.sys->core(0), client,
                                           st.fs->id(), "ycsb.db",
                                           cachePages);
}

/** Per-layer metrics and the cycle ledger from a traced repeat. */
void
spanLayers(Stack &st, uint64_t ops, uint64_t total, Repeat &r)
{
    SpanRecorder &rec = *st.spans;
    const std::vector<std::string> &names = rec.names();
    std::vector<LayerTotals> totals;
    r.ledgerError = selfTotals(rec.spans(), names.size(), totals);
    if (!r.ledgerError.empty())
        return;

    // Top-level calls: transport spans opened directly by an op.
    const uint32_t call = rec.intern(SpanTransport::callSpan);
    const uint32_t app = rec.intern("apps.minidb");
    uint64_t top_calls = 0;
    for (const Span &s : rec.spans())
        if (s.name == call && s.parent >= 0 &&
            rec.spans()[size_t(s.parent)].name == app)
            top_calls++;

    uint64_t ledger = 0;
    for (size_t i = 0; i < names.size(); i++) {
        const LayerTotals &t = totals[i];
        ledger += t.simSelf;
        double n = double(t.spans == 0 ? 1 : t.spans);
        double host_us = double(t.hostSelf) * 1e-3;
        if (names[i] == "apps.minidb") {
            r.layer["apps.minidb.host_self_us_per_op"] = host_us / double(ops);
            r.layer["apps.minidb.sim_self_cycles_per_op"] =
                double(t.simSelf) / double(ops);
        } else if (names[i] == SpanTransport::callSpan) {
            r.layer["core.transport.calls"] = double(t.spans);
            r.layer["core.transport.ipc_cycles_per_call"] =
                double(t.simSelf) / n;
            r.layer["core.transport.host_self_us_per_call"] = host_us / n;
            r.layer["core.ipc_share"] = double(t.simSelf) / double(total);
        } else {
            r.layer[names[i] + ".calls"] = double(t.spans);
            r.layer[names[i] + ".host_self_us_per_call"] = host_us / n;
            r.layer[names[i] + ".sim_self_cycles_per_call"] =
                double(t.simSelf) / n;
        }
        char row[160];
        std::snprintf(row, sizeof(row),
                      "%-20s spans %8llu  sim self %12llu cycles (%5.1f%%)  "
                      "host self %8.1f ms",
                      names[i].c_str(), (unsigned long long)t.spans,
                      (unsigned long long)t.simSelf,
                      100.0 * double(t.simSelf) / double(total),
                      double(t.hostSelf) * 1e-6);
        r.ledgerRows.push_back(row);
    }
    char row[120];
    std::snprintf(row, sizeof(row), "%-20s %29llu cycles = measured %llu",
                  "ledger sum", (unsigned long long)ledger,
                  (unsigned long long)total);
    r.ledgerRows.push_back(row);
    if (ledger != total)
        r.ledgerError = "per-layer self cycles sum to " +
                        std::to_string(ledger) + ", measured total is " +
                        std::to_string(total);

    const double calls = r.layer["core.transport.calls"];
    r.layer["core.transport.failed_calls"] = double(st.spanTr->failedCalls);
    r.layer["core.transport.bytes_per_call"] =
        calls == 0 ? 0 : double(st.spanTr->payloadBytes) / calls;
    r.layer["apps.minidb.calls_per_op"] = double(top_calls) / double(ops);
}

} // namespace

Repeat
runYcsb(const Options &opts, bool traced)
{
    const YcsbSpec spec = specFor(opts.workload);
    Repeat r;

    // Set-up: System, services, database and the 1000-record load.
    double t0 = hostSeconds();
    Stack st;
    build(st, spec, traced);
    std::vector<std::vector<uint8_t>> shadow(
        records, std::vector<uint8_t>(valueBytes));
    for (uint64_t n = 0; n < records; n++) {
        fillValue(shadow[n], n);
        st.db->put(keyFor(n), shadow[n].data(), valueBytes);
    }
    r.setupS = hostSeconds() - t0;

    hw::Core &core = st.sys->core(0);
    SpanRecorder *rec = st.spans.get();
    const uint32_t app_span = rec ? rec->intern("apps.minidb") : 0;
    apps::PagedFile &pager = st.db->pager();
    const uint64_t hits0 = pager.cacheHits.value();
    const uint64_t misses0 = pager.cacheMisses.value();
    const uint64_t reads0 = st.dev->reads.value();
    const uint64_t writes0 = st.dev->writes.value();
    const Snapshot before = snapshotLayers(*st.sys);

    // Measured phase. The request stream (op kind, then key) is a pure
    // function of the seed.
    Rng rng(opts.seed);
    Zipfian zipf(records, 0.99, opts.seed + 1);
    std::vector<uint64_t> op_cycles(spec.ops);
    if (rec)
        rec->recording = true;
    const uint64_t c0 = core.now().value();
    const int64_t h0 = hostNs();
    for (uint64_t k = 0; k < spec.ops; k++) {
        const bool read = rng.nextDouble() < spec.readFraction;
        const uint64_t item = zipf.next();
        const std::string key = keyFor(item);
        const uint64_t start = core.now().value();
        if (rec)
            rec->currentOp = uint32_t(k);
        if (read) {
            std::optional<std::vector<uint8_t>> got;
            {
                SpanScope span(rec, app_span);
                got = st.db->get(key);
            }
            if (!got || *got != shadow[item])
                r.wrong++;
        } else {
            fillValue(shadow[item], records + k);
            SpanScope span(rec, app_span);
            st.db->put(key, shadow[item].data(), valueBytes);
        }
        op_cycles[k] = core.now().value() - start;
    }
    r.measuredS = double(hostNs() - h0) * 1e-9;
    const uint64_t total = core.now().value() - c0;
    if (rec)
        rec->recording = false;
    r.attempted = spec.ops;
    r.failed = r.wrong;

    std::vector<uint64_t> sorted = op_cycles;
    std::sort(sorted.begin(), sorted.end());
    const double per_mcycle = double(spec.ops) * 1e6 / double(total);
    r.sim["sim_ops_per_mcycle"] = per_mcycle;
    // One closed-loop client keeps the stack saturated: capacity is
    // the throughput itself.
    r.sim["sim_capacity_per_mcycle"] = per_mcycle;
    r.sim["sim_cycles_per_op.p50"] = quantile(sorted, 0.50);
    r.sim["sim_cycles_per_op.p99"] = quantile(sorted, 0.99);
    r.sim["sim_cycles_per_op.p999"] = quantile(sorted, 0.999);

    const Snapshot d = delta(snapshotLayers(*st.sys), before);
    const uint64_t hits = pager.cacheHits.value() - hits0;
    const uint64_t misses = pager.cacheMisses.value() - misses0;
    const uint64_t reads = st.dev->reads.value() - reads0;
    const uint64_t writes = st.dev->writes.value() - writes0;
    std::ostringstream sig;
    sig.precision(17);
    sig << "total=" << total << " ops="
        << fingerprint(std::string(
               reinterpret_cast<const char *>(op_cycles.data()),
               op_cycles.size() * sizeof(uint64_t)))
        << " pager=" << hits << "/" << misses << " dev=" << reads << "/"
        << writes;
    for (const auto &[key, v] : d)
        sig << ' ' << key << '=' << v;
    r.signature = sig.str();

    if (!traced)
        return r;

    spanLayers(st, spec.ops, total, r);
    r.layer["apps.minidb.page_cache_hit_ratio"] =
        hits + misses == 0 ? 0 : double(hits) / double(hits + misses);
    r.layer["services.blockdev.reads"] = double(reads);
    r.layer["services.blockdev.writes"] = double(writes);
    registryLayers(d, spec.ops, r.layer);
    r.layer["sim.stats.samples_retained"] =
        double(samplesRetained(st.sys->stats()));
    r.layer["mem.host_ns_per_line"] = hostNsPerLine(*st.sys);
    r.spans = std::move(rec->spans());
    r.spanNames = rec->names();
    return r;
}

} // namespace perfbench
