/**
 * @file
 * Example: the three-server web chain of the paper's section 5.4 -
 * HTTP server -> file cache -> AES crypto - demonstrating message
 * handover: with XPC, the response body is written once by the cache
 * server and encrypted in place by the crypto server inside the
 * client's relay segment; the HTTP server only masks windows.
 *
 *   ./build/examples/web_chain
 *
 * With XPC_TRACE=1 the XPC run additionally exports the request as
 * web_chain_trace.json - one connected flow arc across the browser,
 * httpd, file-cache and aes lanes in ui.perfetto.dev - and prints its
 * critical path (sim/critpath.hh), then the top view: the outcome
 * rows with their p50/p99 and the per-request table.
 *
 * With --overload the example instead demonstrates the overload
 * behavior of DESIGN.md section 4e: a burst of GETs against a tight
 * admission controller on httpd is shed with typed Overloaded
 * replies, the supervisor's circuit breaker trips and quarantines the
 * service, and after the cooldown a half-open probe closes it again.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/breaker.hh"
#include "core/system.hh"
#include "services/admission.hh"
#include "services/crypto/aes.hh"
#include "services/name_server.hh"
#include "services/proto.hh"
#include "services/supervisor.hh"
#include "services/web.hh"
#include "sim/critpath.hh"
#include "sim/trace.hh"

using namespace xpc;

namespace {

uint64_t
serveOnce(core::SystemFlavor flavor, bool show)
{
    core::SystemOptions opts;
    opts.flavor = flavor;
    core::System sys(opts);
    core::Transport &tr = sys.transport();

    kernel::Thread &cache_t = sys.spawn("file-cache");
    kernel::Thread &crypto_t = sys.spawn("aes");
    kernel::Thread &http_t = sys.spawn("httpd");
    kernel::Thread &client = sys.spawn("browser");

    services::FileCacheServer cache(tr, cache_t);
    const uint8_t key[16] = {0x13, 0x37, 0xc0, 0xde, 0x13, 0x37,
                             0xc0, 0xde, 0x13, 0x37, 0xc0, 0xde,
                             0x13, 0x37, 0xc0, 0xde};
    services::CryptoServer crypto(tr, crypto_t, key);

    std::string body = "<html><body><h1>XPC</h1>"
                       "<p>secure and efficient cross process call"
                       "</p></body></html>";
    cache.preload("/index.html",
                  std::vector<uint8_t>(body.begin(), body.end()));

    services::HttpServer http(tr, http_t, cache.id(), crypto.id(),
                              /*encrypt=*/true, 4096);
    tr.connect(client, http.id());
    tr.connect(http_t, cache.id());
    tr.connect(http_t, crypto.id());

    hw::Core &core = sys.core(0);
    trace::Tracer &tracer = sys.machine().tracer();
    // Trace just the GET: the preload/connect traffic above is its
    // own set of requests and would clutter the flow view.
    tracer.clear();
    std::vector<uint8_t> response;
    Cycles t0 = core.now();
    int64_t n = services::HttpServer::clientGet(
        tr, core, client, http.id(), "/index.html", &response, 4096);
    uint64_t cycles = (core.now() - t0).value();

    if (show && tracer.enabled()) {
        const char *path = "web_chain_trace.json";
        if (tracer.exportChromeJson(path))
            std::printf("%zu trace events -> %s "
                        "(open in ui.perfetto.dev)\n\n",
                        tracer.size(), path);
        auto reports = critpath::analyze(tracer);
        for (const auto &r : reports)
            std::printf("%s\n",
                        critpath::formatReport(r, tracer).c_str());
        std::printf("%s\n", critpath::formatTop(reports).c_str());
    }

    if (show && n > 0) {
        std::string text(response.begin(), response.end());
        size_t body_at = text.find("\r\n\r\n");
        std::printf("response headers:\n%.*s\n",
                    int(body_at), text.c_str());
        // Decrypt the body locally to prove the chain worked.
        std::vector<uint8_t> enc(response.begin() + long(body_at) + 4,
                                 response.end());
        services::crypto::Aes128 aes(key);
        uint8_t iv[16] = {};
        aes.decryptCbc(enc.data(), enc.size() & ~size_t(15), iv);
        std::printf("decrypted body:\n%.*s\n\n", int(body.size()),
                    reinterpret_cast<char *>(enc.data()));
    }
    return cycles;
}

void
overloadDemo()
{
    core::SystemOptions opts;
    opts.flavor = core::SystemFlavor::Sel4Xpc;
    opts.deadlineCycles = Cycles(500000);
    core::System sys(opts);
    core::Transport &tr = sys.transport();

    kernel::Thread &ns_t = sys.spawn("nameserver");
    services::NameServer ns(tr, ns_t);
    services::Supervisor sup(tr, ns);
    sup.breakerOpts.enabled = true;
    sup.breakerOpts.failureThreshold = 3;
    sup.breakerOpts.cooldownCycles = Cycles(150000);

    kernel::Thread &cache_t = sys.spawn("file-cache");
    kernel::Thread &crypto_t = sys.spawn("aes");
    kernel::Thread &http_t = sys.spawn("httpd");
    kernel::Thread &client = sys.spawn("browser");

    services::FileCacheServer cache(tr, cache_t);
    const uint8_t key[16] = {0x13, 0x37, 0xc0, 0xde, 0x13, 0x37,
                             0xc0, 0xde, 0x13, 0x37, 0xc0, 0xde,
                             0x13, 0x37, 0xc0, 0xde};
    services::CryptoServer crypto(tr, crypto_t, key);
    std::string body = "<html><body><h1>XPC</h1></body></html>";
    cache.preload("/index.html",
                  std::vector<uint8_t>(body.begin(), body.end()));
    services::HttpServer http(tr, http_t, cache.id(), crypto.id(),
                              /*encrypt=*/true, 1024);
    tr.connect(http_t, cache.id());
    tr.connect(http_t, crypto.id());

    // Two admitted requests per million cycles: the burst below blows
    // straight through the watermark.
    services::AdmissionOptions aopts;
    aopts.highWatermark = 2;
    aopts.drainCycles = Cycles(1000000);
    services::AdmissionController adm("httpd", aopts);
    http.setAdmission(&adm);

    ns.bind("httpd", http.id());
    sup.supervise("httpd", http_t, http.id(),
                  [&](kernel::Thread *&) { return http.id(); });

    hw::Core &core = sys.core(0);
    std::string text = "GET /index.html HTTP/1.1\r\n\r\n";
    std::vector<uint8_t> req(sizeof(services::proto::HttpReplyHeader),
                             0);
    req.insert(req.end(), text.begin(), text.end());
    std::vector<uint8_t> reply(services::HttpServer::bodyOff + 1024 +
                               64);
    services::RetryPolicy one;
    one.maxAttempts = 1;

    std::printf("a 10-GET burst against httpd (admission: 2 per 1M "
                "cycles;\nbreaker: trips after 3 consecutive "
                "failures)\n\n");
    auto get = [&](int i) {
        int64_t n = sup.callWithRetry(
            core, client, "httpd",
            uint64_t(services::proto::HttpOp::Request), req.data(),
            req.size(), reply.data(), reply.size(), one);
        std::printf("  GET #%-2d %-12s breaker %s\n", i,
                    n >= 0 ? "ok"
                           : kernel::callStatusName(sup.lastStatus),
                    core::breakerStateName(
                        sup.breakerFor("httpd").state(core.now())));
    };
    for (int i = 0; i < 10; i++)
        get(i);

    std::printf("\n...bucket drains, breaker cools down...\n\n");
    core.spend(Cycles(1100000));
    get(10);

    std::printf("\nadmitted=%llu shed=%llu breaker_trips=%llu "
                "short_circuited=%llu\n",
                (unsigned long long)adm.admitted.value(),
                (unsigned long long)adm.shed.value(),
                (unsigned long long)sup.breakerTrips.value(),
                (unsigned long long)sup.breakerRejected.value());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--overload") == 0) {
        overloadDemo();
        return 0;
    }
    std::printf("GET /index.html through httpd -> cache -> AES\n\n");
    uint64_t xpc = serveOnce(core::SystemFlavor::Sel4Xpc, true);
    uint64_t sel4 = serveOnce(core::SystemFlavor::Sel4TwoCopy, false);
    uint64_t zircon = serveOnce(core::SystemFlavor::Zircon, false);
    std::printf("%-14s %llu cycles\n", "seL4-XPC",
                (unsigned long long)xpc);
    std::printf("%-14s %llu cycles (%.1fx)\n", "seL4",
                (unsigned long long)sel4, double(sel4) / double(xpc));
    std::printf("%-14s %llu cycles (%.1fx)\n", "Zircon",
                (unsigned long long)zircon,
                double(zircon) / double(xpc));
    std::printf("\nwith XPC the body bytes were written once (by the"
                "\ncache) and encrypted in place; the baselines copied"
                "\nthem on every hop of the chain.\n");
    return 0;
}
