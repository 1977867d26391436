/**
 * @file
 * Paper Figure 8(c): HTTP server throughput (requests/s) vs file
 * size, with and without the AES encryption server in the chain,
 * Zircon vs Zircon-XPC. The paper reports ~10x with encryption and
 * ~12x without; most of the benefit comes from the seg-mask handover
 * along the http -> cache -> crypto chain.
 */

#include "bench_util.hh"

using namespace xpc;
using namespace xpc::bench;

namespace {

double
measure(core::SystemFlavor flavor, uint64_t file_bytes, bool encrypt,
        BenchReport *report = nullptr)
{
    core::SystemOptions opts;
    opts.flavor = flavor;
    opts.machine = hw::lowRiscKc705();
    core::System sys(opts);
    core::Transport &tr = sys.transport();

    kernel::Thread &loop_t = sys.spawn("loopdev");
    kernel::Thread &net_t = sys.spawn("netstack");
    kernel::Thread &cache_t = sys.spawn("cache");
    kernel::Thread &crypto_t = sys.spawn("crypto");
    kernel::Thread &http_t = sys.spawn("http");
    kernel::Thread &client = sys.spawn("client");

    // The network path the request and response traverse, as in the
    // paper's lwIP-hosted HTTP server.
    services::LoopbackDeviceServer loop(tr, loop_t);
    tr.connect(net_t, loop.id());
    services::NetStackServer net(tr, net_t, loop.id());
    tr.connect(client, net.id());

    services::FileCacheServer cache(tr, cache_t);
    uint8_t key[16] = {7, 1, 8, 2, 8, 1, 8, 2,
                       8, 4, 5, 9, 0, 4, 5, 2};
    services::CryptoServer cryp(tr, crypto_t, key);
    std::vector<uint8_t> page(file_bytes);
    for (size_t i = 0; i < page.size(); i++)
        page[i] = uint8_t('a' + i % 26);
    cache.preload("/index.html", page);

    services::HttpServer http(tr, http_t, cache.id(), cryp.id(),
                              encrypt, 8192);
    tr.connect(client, http.id());
    tr.connect(http_t, cache.id());
    tr.connect(http_t, cryp.id());

    hw::Core &core = sys.core(0);
    int64_t srv = services::NetStackServer::clientSocket(tr, core,
                                                         client,
                                                         net.id());
    int64_t cli = services::NetStackServer::clientSocket(tr, core,
                                                         client,
                                                         net.id());
    services::NetStackServer::clientListen(tr, core, client, net.id(),
                                           srv, 80);
    services::NetStackServer::clientConnect(tr, core, client,
                                            net.id(), cli, 80);

    std::vector<uint8_t> wire(16 * 1024);
    auto one_request = [&]() {
        // Request over TCP, the HTTP dispatch, response over TCP.
        static const char req_text[] = "GET /index.html HTTP/1.1";
        services::NetStackServer::clientSend(tr, core, client,
                                             net.id(), cli, req_text,
                                             sizeof(req_text) - 1);
        services::NetStackServer::clientRecv(tr, core, client,
                                             net.id(), srv,
                                             wire.data(), wire.size());
        int64_t n = services::HttpServer::clientGet(
            tr, core, client, http.id(), "/index.html", nullptr,
            8192);
        panic_if(n <= 0, "GET failed");
        services::NetStackServer::clientSend(tr, core, client,
                                             net.id(), srv,
                                             wire.data(), uint64_t(n));
        services::NetStackServer::clientRecv(tr, core, client,
                                             net.id(), cli,
                                             wire.data(), wire.size());
    };

    one_request(); // warm-up
    const int requests = 15;
    Cycles t0 = core.now();
    for (int i = 0; i < requests; i++)
        one_request();
    double secs = sys.machine().config().cyclesToSec(core.now() - t0);
    // Registry distributions (per-span "phases" stats) from this run
    // populate the report's "distributions" section per flavor.
    if (report)
        attachRegistryDistributions(
            *report, sys.stats(),
            std::string(core::systemFlavorName(flavor)) +
                (encrypt ? ".aes" : ".plain"));
    return double(requests) / secs;
}

void
printTable()
{
    BenchReport report("fig08_http");
    Table t(report,
            "Figure 8(c): HTTP server throughput (requests/s) vs "
            "file size (paper: ~12x plain, ~10x encrypted)",
            {{"file(B)"},
             {"Zircon", "%.0f", "plain_rps.zircon"},
             {"Zircon-XPC", "%.0f", "plain_rps.zircon_xpc"},
             {"speedup", "%.1fx", "speedup.plain"},
             {"encry-Zircon", "%.0f", "encrypted_rps.zircon"},
             {"encry-XPC", "%.0f", "encrypted_rps.zircon_xpc"},
             {"speedup", "%.1fx", "speedup.encrypted"}});
    const uint64_t sizes[] = {512, 1024, 2048, 3072, 4096};
    for (uint64_t s : sizes) {
        // The 2 KiB row doubles as the representative config whose
        // per-span distributions land in the report.
        BenchReport *rep = s == 2048 ? &report : nullptr;
        double z = measure(core::SystemFlavor::Zircon, s, false, rep);
        double x =
            measure(core::SystemFlavor::ZirconXpc, s, false, rep);
        double ze = measure(core::SystemFlavor::Zircon, s, true, rep);
        double xe =
            measure(core::SystemFlavor::ZirconXpc, s, true, rep);
        t.row(std::to_string(s), std::to_string(s) + "B",
              {z, x, x / z, ze, xe, xe / ze});
    }
    t.print();

    for (uint64_t s : sizes) {
        std::string sz = "." + std::to_string(s) + "B";
        report.less("plain_rps.zircon" + sz, "plain_rps.zircon_xpc" + sz);
        report.less("encrypted_rps.zircon" + sz,
                    "encrypted_rps.zircon_xpc" + sz);
        report.less("speedup.encrypted" + sz, "speedup.plain" + sz);
    }
    report.less("speedup.plain.4096B", "speedup.plain.512B");
    report.less("speedup.encrypted.4096B", "speedup.encrypted.512B");
    const char *compute = "AES and per-segment TCP compute are charged "
                          "identically to both systems";
    report.metric("paper.speedup.plain.512B", 12);
    report.metric("paper.speedup.encrypted.512B", 10);
    report.near("speedup.plain.512B", 0.15).deviation = compute;
    report.near("speedup.encrypted.512B", 0.15).deviation = compute;
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
