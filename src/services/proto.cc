#include "proto.hh"

#include <algorithm>

namespace xpc::services::proto {

int64_t
fsMsgCall(core::Transport &tr, hw::Core &core, kernel::Thread &client,
          core::ServiceId svc, uint64_t op, const FsMsg &msg,
          const void *payload, uint64_t payload_len, void *reply_data,
          uint64_t reply_data_cap)
{
    tr.requestArea(core, client,
                   fsDataOffset + std::max(payload_len,
                                           reply_data_cap));
    uint8_t hdr[sizeof(FsMsg)];
    packInto(hdr, msg);
    tr.clientWrite(core, client, 0, hdr, sizeof(hdr));
    if (payload_len > 0)
        tr.clientWrite(core, client, fsDataOffset, payload,
                       payload_len);
    auto r = tr.call(core, client, svc, op, fsDataOffset + payload_len,
                     fsDataOffset + reply_data_cap);
    if (!r.ok)
        return fsMsgCallFailed;
    uint8_t reply_raw[sizeof(FsMsg)];
    tr.clientRead(core, client, 0, reply_raw, sizeof(reply_raw));
    FsMsg reply = unpackFrom<FsMsg>(reply_raw);
    if (reply.a > 0 && reply_data) {
        uint64_t n = std::min<uint64_t>(uint64_t(reply.a),
                                        reply_data_cap);
        tr.clientRead(core, client, fsDataOffset, reply_data, n);
    }
    return reply.a;
}

} // namespace xpc::services::proto
