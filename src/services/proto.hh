/**
 * @file
 * Wire protocols of the user-level services. All messages are plain
 * little-endian structs at fixed offsets so the same bytes work over
 * every transport.
 */

#ifndef XPC_SERVICES_PROTO_HH
#define XPC_SERVICES_PROTO_HH

#include <cstdint>
#include <cstring>

#include "core/transport.hh"

namespace xpc::services::proto {

/// @name Block device server.
/// @{
enum class BlockOp : uint64_t { Read = 1, Write = 2, Info = 3 };

/** Request header; write payload follows at dataOffset. */
struct BlockReq
{
    uint64_t blockNo;
    uint64_t count; ///< blocks
};

constexpr uint64_t blockDataOffset = 16;
/// @}

/// @name File system server.
/// @{
enum class FsOp : uint64_t
{
    Open = 1,  ///< a = flags; path follows
    Read,      ///< a = fd, b = offset, c = len
    Write,     ///< a = fd, b = offset, c = len; data at fsDataOffset
    Close,     ///< a = fd
    Unlink,    ///< path follows
    Stat,      ///< a = fd; reply b = size
    Mkdir,     ///< path follows
};

/** Open flags. */
constexpr uint64_t fsOpenCreate = 1;

/** Fixed request/reply header. */
struct FsMsg
{
    int64_t a = 0;
    int64_t b = 0;
    int64_t c = 0;
    int64_t d = 0;
};

constexpr uint64_t fsDataOffset = 32;
constexpr uint64_t fsMaxPath = 120;
/** Hostile-length clamp: the largest read/write payload one FS
 *  message can legitimately carry (service maxMsgBytes minus the
 *  header area). Anything bigger in FsMsg::c is a framing attack. */
constexpr uint64_t fsMaxIoBytes = 256 * 1024 - fsDataOffset;

/** What fsMsgCall returns when the call itself failed (as opposed
 *  to a service-level error carried in the reply). */
constexpr int64_t fsMsgCallFailed = -1000;

/**
 * The client side of one FsMsg call (the fs and net servers): @p msg
 * at offset 0 and @p payload at fsDataOffset. @return the reply's
 * `a`, after copying up to @p reply_data_cap reply bytes into
 * @p reply_data when `a` is positive; fsMsgCallFailed when the call
 * failed.
 */
int64_t fsMsgCall(core::Transport &tr, hw::Core &core,
                  kernel::Thread &client, core::ServiceId svc,
                  uint64_t op, const FsMsg &msg, const void *payload,
                  uint64_t payload_len, void *reply_data,
                  uint64_t reply_data_cap);
/// @}

/// @name Network stack server.
/// @{
enum class NetOp : uint64_t
{
    Socket = 1, ///< reply a = sock id
    Listen,     ///< a = sock, b = port
    Connect,    ///< a = sock, b = port; pairs with a listening sock
    Send,       ///< a = sock, c = len; data at fsDataOffset
    Recv,       ///< a = sock, c = maxLen; reply a = len, data follows
    CloseSock,  ///< a = sock
};
/// @}

/// @name Loopback network device server.
/// @{
enum class DevOp : uint64_t { Xmit = 1 };
/// @}

/// @name In-memory file cache server.
/// @{
enum class CacheOp : uint64_t
{
    Get = 1, ///< request = path bytes; reply = content
    Put,     ///< a = contentLen; path at 32, content at 160
};
constexpr uint64_t cachePathOffset = 32;
constexpr uint64_t cacheDataOffset = 160;
/// @}

/// @name AES encryption server.
/// @{
enum class CryptoOp : uint64_t
{
    Encrypt = 1, ///< request = payload; reply = ciphertext in place
    Decrypt,
};
/// @}

/// @name HTTP server.
/// @{
enum class HttpOp : uint64_t { Request = 1 };

/** Reply preamble written at offset 0 of the message. */
struct HttpReplyHeader
{
    uint64_t respOff;
    uint64_t respLen;
};
/// @}

/** Helper: serialize a POD into a byte buffer. */
template <typename T>
void
packInto(uint8_t *dst, const T &value)
{
    std::memcpy(dst, &value, sizeof(T));
}

/** Helper: deserialize a POD from a byte buffer. */
template <typename T>
T
unpackFrom(const uint8_t *src)
{
    T value;
    std::memcpy(&value, src, sizeof(T));
    return value;
}

} // namespace xpc::services::proto

#endif // XPC_SERVICES_PROTO_HH
