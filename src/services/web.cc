#include "web.hh"

#include <cstdio>
#include <cstring>

#include "services/proto.hh"
#include "sim/logging.hh"

namespace xpc::services {

using namespace proto;

// --------------------------------------------------------------------
// File cache
// --------------------------------------------------------------------

FileCacheServer::FileCacheServer(core::Transport &tr,
                                 kernel::Thread &handler_thread)
{
    core::ServiceDesc desc;
    desc.name = "filecache";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = 256 * 1024;
    serve(tr, desc, [this](core::ServerApi &api) { handle(api); });
}

void
FileCacheServer::preload(const std::string &path,
                         std::vector<uint8_t> data)
{
    files[path] = std::move(data);
}

void
FileCacheServer::handle(core::ServerApi &api)
{
    if (api.opcode() != uint64_t(CacheOp::Get)) {
        // Unknown opcodes are hostile or corrupted input, not a
        // programming error in this process - reject, don't panic.
        badRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }
    gets.inc();

    // The request is a NUL-terminated path in the first bytes. Fetch
    // the probe window once, then validate the private copy: a path
    // that fills the window with no terminator would be silently
    // truncated into a *different* path, so it is rejected instead.
    char raw[fsMaxPath + 1] = {};
    uint64_t probe = std::min<uint64_t>(fsMaxPath, api.requestLen());
    if (probe == 0)
        probe = fsMaxPath;
    api.readRequest(0, raw, probe);
    if (probe == fsMaxPath && std::memchr(raw, 0, probe) == nullptr) {
        // The window is saturated with no terminator: the real path
        // is longer than fsMaxPath and would be served truncated.
        badRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }
    raw[fsMaxPath] = 0;
    std::string path(raw);

    auto it = files.find(path);
    if (it == files.end()) {
        misses.inc();
        static const char body[] = "404 Not Found";
        api.writeReply(0, body, sizeof(body) - 1);
        api.setReplyLen(sizeof(body) - 1);
        return;
    }
    api.writeReply(0, it->second.data(), it->second.size());
    api.setReplyLen(it->second.size());
}

// --------------------------------------------------------------------
// Crypto server
// --------------------------------------------------------------------

CryptoServer::CryptoServer(core::Transport &tr,
                           kernel::Thread &handler_thread,
                           const uint8_t key[crypto::Aes128::keyBytes])
    : aes(key)
{
    core::ServiceDesc desc;
    desc.name = "crypto";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = 256 * 1024;
    svcId = tr.registerService(
        desc, [this](core::ServerApi &api) { handle(api); });
}

void
CryptoServer::handle(core::ServerApi &api)
{
    requests.inc();
    uint64_t len = api.requestLen();
    if (len % crypto::Aes128::blockBytes != 0) {
        // Unaligned payloads come from truncated or corrupted frames
        // (a legitimate client always pads): reject, don't panic.
        badRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }
    std::vector<uint8_t> buf(len);
    api.readRequest(0, buf.data(), len);

    static const uint8_t iv[crypto::Aes128::blockBytes] = {};
    switch (CryptoOp(api.opcode())) {
      case CryptoOp::Encrypt:
        aes.encryptCbc(buf.data(), len, iv);
        break;
      case CryptoOp::Decrypt:
        aes.decryptCbc(buf.data(), len, iv);
        break;
      default:
        badRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }
    // Charge the cipher compute to the executing core.
    api.core().spend(Cycles(crypto::Aes128::costCycles(len)));

    api.writeReply(0, buf.data(), len);
    api.setReplyLen(len);
}

// --------------------------------------------------------------------
// HTTP server
// --------------------------------------------------------------------

HttpServer::HttpServer(core::Transport &tr,
                       kernel::Thread &handler_thread,
                       core::ServiceId cache_svc,
                       core::ServiceId crypto_svc, bool encrypt_on,
                       uint64_t max_body)
    : cacheSvc(cache_svc), cryptoSvc(crypto_svc), encrypt(encrypt_on),
      maxBody(max_body)
{
    core::ServiceDesc desc;
    desc.name = "http";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = bodyOff + max_body + 64;
    desc.selfAppendBytes = bodyOff;
    desc.callees = {cache_svc};
    if (encrypt_on)
        desc.callees.push_back(crypto_svc);
    serve(tr, desc, [this](core::ServerApi &api) { handle(api); });
}

void
HttpServer::handle(core::ServerApi &api)
{
    requests.inc();

    // A frame shorter than the reply preamble would underflow the
    // text-length computation below into a ~2^64 over-read.
    if (api.requestLen() < sizeof(HttpReplyHeader)) {
        badRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }

    // Parse "GET /path HTTP/1.1" from the request text after the
    // 16-byte reply preamble.
    char text[128] = {};
    uint64_t text_len =
        std::min<uint64_t>(sizeof(text) - 1,
                           api.requestLen() - sizeof(HttpReplyHeader));
    api.readRequest(sizeof(HttpReplyHeader), text, text_len);
    std::string line(text);
    std::string path;
    bool ok = false;
    if (line.rfind("GET ", 0) == 0) {
        size_t sp = line.find(' ', 4);
        if (sp != std::string::npos) {
            path = line.substr(4, sp - 4);
            ok = true;
        }
    }

    uint64_t body_len = 0;
    int status = 200;
    if (!ok) {
        status = 400;
        static const char bad[] = "Bad Request";
        api.writeRequest(bodyOff, bad, sizeof(bad) - 1);
        body_len = sizeof(bad) - 1;
    } else {
        // Stage the path at the body window and hand the window to
        // the cache server, which fills it with the file content.
        std::string keyed = path + std::string(1, '\0');
        api.writeRequest(bodyOff, keyed.data(), keyed.size());
        body_len = api.callService(cacheSvc, uint64_t(CacheOp::Get),
                                   bodyOff, maxBody, keyed.size());
        if (api.failStatus != core::TransportStatus::Ok) {
            // The cache died or the hop faulted; the invocation is
            // already marked failed, don't build a reply on garbage.
            api.setReplyLen(0);
            return;
        }
        if (body_len == 13) {
            // Crude 404 detection mirrors real static servers that
            // stat() first; the cache reply is still served.
            char probe[13];
            api.readRequest(bodyOff, probe, sizeof(probe));
            if (std::memcmp(probe, "404 Not Found", 13) == 0) {
                status = 404;
                notFound.inc();
            }
        }
    }

    if (encrypt && status == 200) {
        // Pad to the cipher block and encrypt in place.
        uint64_t padded = (body_len + crypto::Aes128::blockBytes - 1) &
                          ~uint64_t(crypto::Aes128::blockBytes - 1);
        if (padded != body_len) {
            uint8_t zeros[crypto::Aes128::blockBytes] = {};
            api.writeRequest(bodyOff + body_len, zeros,
                             padded - body_len);
        }
        uint64_t r = api.callService(
            cryptoSvc, uint64_t(CryptoOp::Encrypt), bodyOff, padded);
        if (api.failStatus != core::TransportStatus::Ok ||
            r != padded) {
            // A dead crypto server must not take the HTTP server
            // down with it; fail this invocation only.
            if (api.failStatus == core::TransportStatus::Ok)
                api.fail(core::TransportStatus::NestedFailure);
            api.setReplyLen(0);
            return;
        }
        body_len = padded;
    }

    // Response headers immediately before the body.
    char hdr[bodyOff];
    int hdr_len = std::snprintf(
        hdr, sizeof(hdr),
        "HTTP/1.1 %d %s\r\nServer: xpc-httpd\r\n"
        "Content-Length: %llu\r\nConnection: keep-alive\r\n\r\n",
        status, status == 200 ? "OK" : (status == 404 ? "Not Found"
                                                      : "Bad Request"),
        (unsigned long long)body_len);
    panic_if(hdr_len <= 0 || uint64_t(hdr_len) >
                                 bodyOff - sizeof(HttpReplyHeader),
             "header overflow");
    uint64_t hdr_off = bodyOff - uint64_t(hdr_len);
    api.writeReply(hdr_off, hdr, uint64_t(hdr_len));

    HttpReplyHeader pre{hdr_off, uint64_t(hdr_len) + body_len};
    uint8_t pre_raw[sizeof(pre)];
    packInto(pre_raw, pre);
    api.writeReply(0, pre_raw, sizeof(pre_raw));

    // The body is already in place within the message.
    api.replyFromRequest(bodyOff, body_len);
    api.setReplyLen(bodyOff + body_len);
}

int64_t
HttpServer::clientGet(core::Transport &tr, hw::Core &core,
                      kernel::Thread &client, core::ServiceId svc,
                      const std::string &path,
                      std::vector<uint8_t> *response, uint64_t max_body)
{
    uint64_t area = bodyOff + max_body + 64;
    tr.requestArea(core, client, area);

    std::string text = "GET " + path + " HTTP/1.1\r\n\r\n";
    tr.clientWrite(core, client, sizeof(HttpReplyHeader), text.data(),
                   text.size());
    auto r = tr.call(core, client, svc, uint64_t(HttpOp::Request),
                     sizeof(HttpReplyHeader) + text.size(), area);
    if (!r.ok)
        return -1;

    uint8_t pre_raw[sizeof(HttpReplyHeader)];
    tr.clientRead(core, client, 0, pre_raw, sizeof(pre_raw));
    auto pre = unpackFrom<HttpReplyHeader>(pre_raw);
    // The preamble crossed the transport and may be corrupted:
    // clamp it to the reply frame before sizing buffers off it
    // (overflow-safe form - respOff + respLen could wrap).
    uint64_t frame = std::min<uint64_t>(area, r.replyLen);
    if (pre.respOff > frame || pre.respLen > frame - pre.respOff)
        return -1;
    if (response) {
        response->resize(pre.respLen);
        tr.clientRead(core, client, pre.respOff, response->data(),
                      pre.respLen);
    }
    return int64_t(pre.respLen);
}

} // namespace xpc::services
