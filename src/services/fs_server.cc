#include "fs_server.hh"

#include <cstring>
#include <vector>

#include "services/proto.hh"
#include "sim/logging.hh"

namespace xpc::services {

using namespace proto;

void
FsServer::IpcBlockIo::read(uint32_t block_no, void *dst)
{
    panic_if(!core, "block IO without a core context");
    if (ioFailed) {
        // The device already failed this invocation; don't hammer a
        // dead service, serve zeros until the handler aborts.
        std::memset(dst, 0, BlockDeviceServer::blockBytes);
        return;
    }
    uint8_t req[sizeof(BlockReq)];
    packInto(req, BlockReq{block_no, 1});
    // The disk call may fail under fault injection; retry a couple of
    // times (the backing store is durable), then give up and let the
    // FS handler fail the whole invocation.
    for (int attempt = 0; attempt < 3; attempt++) {
        uint64_t got = transport.scratchCall(
            *core, fsThread, inHandler, diskSvc,
            uint64_t(BlockOp::Read), req, sizeof(req), dst,
            BlockDeviceServer::blockBytes);
        if (got == BlockDeviceServer::blockBytes)
            return;
    }
    std::memset(dst, 0, BlockDeviceServer::blockBytes);
    ioFailed = true;
}

void
FsServer::IpcBlockIo::write(uint32_t block_no, const void *src)
{
    panic_if(!core, "block IO without a core context");
    if (ioFailed)
        return;
    packInto(writeReq.data(), BlockReq{block_no, 1});
    std::memcpy(writeReq.data() + blockDataOffset, src,
                BlockDeviceServer::blockBytes);
    for (int attempt = 0; attempt < 3; attempt++) {
        uint64_t got = transport.scratchCall(
            *core, fsThread, inHandler, diskSvc,
            uint64_t(BlockOp::Write), writeReq.data(), writeReq.size(),
            nullptr, 0);
        if (got != core::Transport::scratchFailed)
            return;
    }
    ioFailed = true;
}

FsServer::FsServer(core::Transport &tr, kernel::Thread &fs_thread,
                   core::ServiceId block_svc, uint64_t disk_blocks,
                   bool format)
    : blockIo(tr, fs_thread, block_svc)
{
    // The FS thread needs a scratch message area big enough for one
    // block write plus headers.
    hw::Core &boot_core =
        tr.kernelRef().machine().core(fs_thread.sched.homeCore);
    tr.prepareScratch(boot_core, fs_thread,
                      blockDataOffset + BlockDeviceServer::blockBytes + 256);

    // Mount (formatting first unless attaching), as the FS thread,
    // at wiring time. On the attach path mount() replays a committed
    // log - crash recovery completes before the service registers.
    blockIo.core = &boot_core;
    blockIo.inHandler = false;
    if (format)
        fs::Xv6Fs::mkfs(blockIo, uint32_t(disk_blocks));
    int64_t r = filesystem.mount(blockIo);
    fatal_if(r != fs::fsOk, format
                 ? "failed to mount the fresh file system"
                 : "failed to attach to the existing file system");

    core::ServiceDesc desc;
    desc.name = "fs";
    desc.handlerThread = &fs_thread;
    desc.maxMsgBytes = 256 * 1024;
    desc.selfAppendBytes = fsDataOffset;
    desc.callees = {block_svc};
    serve(tr, desc, [this](core::ServerApi &api) { handle(api); });
}

void
FsServer::handle(core::ServerApi &api)
{
    // Copy-then-validate: the header must actually be present (and
    // the reply area hold one), every field is fetched exactly once
    // into a private copy, and all derived lengths are validated
    // against that copy and the reply area before any allocation or
    // file-system mutation. Hostile input gets a typed
    // IntegrityViolation, never a panic.
    if (api.requestLen() < sizeof(FsMsg) ||
        api.replyCapacity() < sizeof(FsMsg)) {
        malformedRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        return;
    }

    blockIo.core = &api.core();
    blockIo.inHandler = true;

    uint8_t hdr_raw[sizeof(FsMsg)];
    api.readRequest(0, hdr_raw, sizeof(hdr_raw));
    FsMsg req = unpackFrom<FsMsg>(hdr_raw);
    FsMsg reply{};

    bool malformed = false;
    auto read_path = [&](int64_t path_len) {
        // A negative length is a sign-extension attack; a length past
        // fsMaxPath or past the frame is an over-read attempt.
        uint64_t len = uint64_t(path_len);
        if (path_len < 0 || len > fsMaxPath ||
            fsDataOffset + len > api.requestLen()) {
            malformed = true;
            return std::string();
        }
        std::vector<char> raw(len + 1, 0);
        if (len > 0)
            api.readRequest(fsDataOffset, raw.data(), len);
        return std::string(raw.data());
    };
    // FsMsg::c as an IO byte count: reject sign-extension and
    // larger-than-any-message values before sizing a buffer off it.
    auto io_len_ok = [&](int64_t io_len) {
        if (io_len < 0 || uint64_t(io_len) > fsMaxIoBytes) {
            malformed = true;
            return false;
        }
        return true;
    };
    // The server's IO buffer, grown to at least @p len bytes.
    auto io_buf = [&](int64_t len) {
        if (ioBuf.size() < uint64_t(len))
            ioBuf.resize(uint64_t(len));
        return ioBuf.data();
    };

    switch (FsOp(api.opcode())) {
      case FsOp::Open: {
        std::string path = read_path(req.c);
        if (malformed)
            break;
        reply.a = filesystem.open(path, req.a & fsOpenCreate);
        break;
      }
      case FsOp::Read: {
        // c bytes may follow the reply header: they must fit in the
        // caller's reply area.
        if (!io_len_ok(req.c) ||
            fsDataOffset + uint64_t(req.c) > api.replyCapacity()) {
            malformed = true;
            break;
        }
        uint8_t *buf = io_buf(req.c);
        int64_t r = filesystem.pread(req.a, uint64_t(req.b), buf,
                                     uint64_t(req.c));
        reply.a = r;
        if (r > 0)
            api.writeReply(fsDataOffset, buf, uint64_t(r));
        break;
      }
      case FsOp::Write: {
        // A write must carry the bytes it claims to: c past the end
        // of the frame would make us journal stale buffer contents.
        if (!io_len_ok(req.c) ||
            fsDataOffset + uint64_t(req.c) > api.requestLen()) {
            malformed = true;
            break;
        }
        uint8_t *buf = io_buf(req.c);
        if (req.c > 0)
            api.readRequest(fsDataOffset, buf, uint64_t(req.c));
        reply.a = filesystem.pwrite(req.a, uint64_t(req.b), buf,
                                    uint64_t(req.c));
        break;
      }
      case FsOp::Close:
        reply.a = filesystem.close(req.a);
        break;
      case FsOp::Unlink: {
        std::string path = read_path(req.c);
        if (malformed)
            break;
        reply.a = filesystem.unlink(path);
        break;
      }
      case FsOp::Stat:
        reply.a = filesystem.fileSize(req.a);
        break;
      case FsOp::Mkdir: {
        std::string path = read_path(req.c);
        if (malformed)
            break;
        reply.a = filesystem.mkdir(path);
        break;
      }
      default:
        malformed = true;
        break;
    }

    if (malformed) {
        malformedRequests.inc();
        api.fail(core::TransportStatus::IntegrityViolation);
        blockIo.core = nullptr;
        blockIo.inHandler = false;
        return;
    }

    uint8_t reply_raw[sizeof(FsMsg)];
    packInto(reply_raw, reply);
    api.writeReply(0, reply_raw, sizeof(reply_raw));
    if (api.opcode() == uint64_t(FsOp::Read) && reply.a > 0)
        api.setReplyLen(fsDataOffset + uint64_t(reply.a));
    else
        api.setReplyLen(sizeof(FsMsg));

    if (blockIo.ioFailed) {
        // A disk call failed even after retries: the FS state this
        // handler produced cannot be trusted, abort the invocation.
        blockIo.ioFailed = false;
        api.fail(core::TransportStatus::NestedFailure);
    }

    blockIo.core = nullptr;
    blockIo.inHandler = false;
}

int64_t
FsServer::clientOpen(core::Transport &tr, hw::Core &core,
                     kernel::Thread &client, core::ServiceId svc,
                     const std::string &path, bool create)
{
    FsMsg msg;
    msg.a = create ? fsOpenCreate : 0;
    msg.c = int64_t(path.size());
    return fsMsgCall(tr, core, client, svc, uint64_t(FsOp::Open), msg,
                     path.data(), path.size(), nullptr, 0);
}

int64_t
FsServer::clientRead(core::Transport &tr, hw::Core &core,
                     kernel::Thread &client, core::ServiceId svc,
                     int64_t fd, uint64_t off, void *dst, uint64_t len)
{
    FsMsg msg;
    msg.a = fd;
    msg.b = int64_t(off);
    msg.c = int64_t(len);
    return fsMsgCall(tr, core, client, svc, uint64_t(FsOp::Read), msg, nullptr,
                     0, dst, len);
}

int64_t
FsServer::clientWrite(core::Transport &tr, hw::Core &core,
                      kernel::Thread &client, core::ServiceId svc,
                      int64_t fd, uint64_t off, const void *src,
                      uint64_t len)
{
    FsMsg msg;
    msg.a = fd;
    msg.b = int64_t(off);
    msg.c = int64_t(len);
    return fsMsgCall(tr, core, client, svc, uint64_t(FsOp::Write), msg, src,
                     len, nullptr, 0);
}

int64_t
FsServer::clientClose(core::Transport &tr, hw::Core &core,
                      kernel::Thread &client, core::ServiceId svc,
                      int64_t fd)
{
    FsMsg msg;
    msg.a = fd;
    return fsMsgCall(tr, core, client, svc, uint64_t(FsOp::Close), msg, nullptr,
                     0, nullptr, 0);
}

int64_t
FsServer::clientStat(core::Transport &tr, hw::Core &core,
                     kernel::Thread &client, core::ServiceId svc,
                     int64_t fd)
{
    FsMsg msg;
    msg.a = fd;
    return fsMsgCall(tr, core, client, svc, uint64_t(FsOp::Stat), msg, nullptr,
                     0, nullptr, 0);
}

} // namespace xpc::services
