/**
 * @file
 * A YCSB-flavored key-value server: u64 keys, fixed 64-byte values.
 * Small enough to crash-loop cheaply, stateful enough that loss of
 * an instance is observable - which is exactly what the chaos and
 * tenant-containment suites need from their "kv" workload. Values
 * are a pure function of the key (valueFor), so reads stay
 * verifiable across server restarts.
 */

#ifndef XPC_SERVICES_KV_HH
#define XPC_SERVICES_KV_HH

#include <array>
#include <map>

#include "services/service.hh"

namespace xpc::services {

/** YCSB-flavored KV server: u64 keys, fixed 64-byte values. */
class KvServer : public Service
{
  public:
    static constexpr uint64_t valueBytes = 64;
    enum : uint64_t { opGet = 1, opPut = 2 };

    KvServer(core::Transport &tr, kernel::Thread &t);

    /** Requests rejected because the frame was too short for the
     *  opcode (hostile truncation or corrupted length). */
    Counter shortRequests;

    /** The value every put stores for @p key. Deriving values from
     *  keys makes reads verifiable across server restarts. */
    static std::array<uint8_t, valueBytes> valueFor(uint64_t key)
    {
        std::array<uint8_t, valueBytes> v;
        for (uint64_t j = 0; j < valueBytes; j++)
            v[j] = uint8_t(key * 31 + j * 7 + 1);
        return v;
    }

  private:
    std::map<uint64_t, std::array<uint8_t, valueBytes>> store;

    void handle(core::ServerApi &api);
};

} // namespace xpc::services

#endif // XPC_SERVICES_KV_HH
