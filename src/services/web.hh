/**
 * @file
 * The web-server experiment's three services (paper 5.4): an HTTP
 * server, an in-memory file-cache server, and an AES-128 encryption
 * server. The HTTP server forwards the body region of its message to
 * the cache (which fills it) and then to the crypto server (which
 * encrypts it in place); with XPC these hops are seg-mask handovers
 * and no body byte is ever copied between servers.
 */

#ifndef XPC_SERVICES_WEB_HH
#define XPC_SERVICES_WEB_HH

#include <map>
#include <string>
#include <vector>

#include "services/crypto/aes.hh"
#include "services/service.hh"

namespace xpc::services {

/** In-memory file cache server. */
class FileCacheServer : public Service
{
  public:
    FileCacheServer(core::Transport &transport,
                    kernel::Thread &handler_thread);

    /** Preload a file (wiring-time, not charged). */
    void preload(const std::string &path, std::vector<uint8_t> data);

    Counter gets;
    Counter misses;
    /** Hostile/corrupted requests rejected with a typed status
     *  (unknown opcode, unterminated over-long path). */
    Counter badRequests;

  private:
    std::map<std::string, std::vector<uint8_t>> files;

    void handle(core::ServerApi &api);
};

/** AES-128-CBC encryption server. */
class CryptoServer
{
  public:
    CryptoServer(core::Transport &transport,
                 kernel::Thread &handler_thread,
                 const uint8_t key[crypto::Aes128::keyBytes]);

    core::ServiceId id() const { return svcId; }

    Counter requests;
    /** Hostile/corrupted requests rejected with a typed status
     *  (unaligned payload, unknown opcode). */
    Counter badRequests;

  private:
    core::ServiceId svcId = 0;
    crypto::Aes128 aes;

    void handle(core::ServerApi &api);
};

/**
 * The HTTP server. The message layout it maintains:
 *   [0, 16)            reply preamble {respOff, respLen}
 *   [16, bodyOff)      request line / response headers
 *   [bodyOff, ...)     body window handed to cache / crypto
 */
class HttpServer : public Service
{
  public:
    /** Offset of the body window inside the message. */
    static constexpr uint64_t bodyOff = 256;

    HttpServer(core::Transport &transport,
               kernel::Thread &handler_thread,
               core::ServiceId cache_svc, core::ServiceId crypto_svc,
               bool encrypt, uint64_t max_body);

    /**
     * Client helper: perform one GET and return the response bytes.
     * @return response length, or a negative status.
     */
    static int64_t clientGet(core::Transport &tr, hw::Core &core,
                             kernel::Thread &client,
                             core::ServiceId svc,
                             const std::string &path,
                             std::vector<uint8_t> *response,
                             uint64_t max_body);

    Counter requests;
    Counter notFound;
    /** Hostile/corrupted requests rejected with a typed status
     *  (frame shorter than the reply preamble). */
    Counter badRequests;

  private:
    core::ServiceId cacheSvc;
    core::ServiceId cryptoSvc;
    bool encrypt;
    uint64_t maxBody;

    void handle(core::ServerApi &api);
};

} // namespace xpc::services

#endif // XPC_SERVICES_WEB_HH
