#include "kv.hh"

#include <cstring>

namespace xpc::services {

KvServer::KvServer(core::Transport &tr, kernel::Thread &t)
{
    core::ServiceDesc desc;
    desc.name = "kv";
    desc.handlerThread = &t;
    desc.maxMsgBytes = 4096;
    serve(tr, desc, [this](core::ServerApi &api) { handle(api); });
}

void
KvServer::handle(core::ServerApi &api)
{
    // Copy-then-validate: every field is fetched exactly once into a
    // private copy, and the message must actually carry the bytes the
    // opcode implies - a hostile peer shrinking the frame after the
    // length check would otherwise make us parse stale or zero bytes.
    if (api.requestLen() < sizeof(uint64_t)) {
        shortRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }
    uint8_t key_raw[8] = {};
    api.readRequest(0, key_raw, sizeof(key_raw));
    uint64_t key = 0;
    std::memcpy(&key, key_raw, sizeof(key));
    if (api.opcode() == opPut) {
        if (api.requestLen() < sizeof(uint64_t) + valueBytes) {
            shortRequests.inc();
            api.fail(core::TransportStatus::IntegrityViolation);
            return;
        }
        std::array<uint8_t, valueBytes> val{};
        api.readRequest(8, val.data(), val.size());
        store[key] = val;
        api.setReplyLen(0);
        return;
    }
    // Anything else (including a zeroed opcode off a faulted
    // copy) is treated as a get; unknown keys miss cleanly.
    auto it = store.find(key);
    if (it == store.end()) {
        api.setReplyLen(0);
        return;
    }
    api.writeReply(0, it->second.data(), it->second.size());
    api.setReplyLen(it->second.size());
}

} // namespace xpc::services
