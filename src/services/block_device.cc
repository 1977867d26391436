#include "block_device.hh"

#include "hw/machine.hh"
#include "services/proto.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"

namespace xpc::services {

BlockDeviceServer::BlockDeviceServer(core::Transport &tr,
                                     kernel::Thread &handler_thread,
                                     uint64_t n)
    : transport(tr), serverThread(handler_thread), nblocks(n)
{
    store = handler_thread.process()->alloc(nblocks * blockBytes);

    core::ServiceDesc desc;
    desc.name = "blockdev";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = maxMsgBytes;
    svcId = transport.registerService(
        desc, [this](core::ServerApi &api) { handle(api); });
}

void
BlockDeviceServer::handle(core::ServerApi &api)
{
    using namespace proto;
    uint8_t hdr[sizeof(BlockReq)];
    api.readRequest(0, hdr, sizeof(hdr));
    BlockReq req = unpackFrom<BlockReq>(hdr);
    if (req.count > nblocks || req.blockNo > nblocks - req.count) {
        // A corrupted request (e.g. a faulted copy read as zeros or
        // garbage) must not take the device down with it.
        api.fail(core::TransportStatus::CopyFault);
        api.setReplyLen(0);
        return;
    }

    BlockOp op = BlockOp(api.opcode());
    uint64_t bytes = req.count * blockBytes;
    if (op == BlockOp::Read || op == BlockOp::Write) {
        // A hostile size fails before it sizes the buffer: more
        // blocks than one message holds, a write whose blocks run
        // past the request, or a read whose reply runs past the
        // caller's area.
        bool fits = bytes <= maxMsgBytes &&
                    (op == BlockOp::Read
                         ? bytes <= api.replyCapacity()
                         : blockDataOffset + bytes <= api.requestLen());
        if (!fits) {
            api.fail(core::TransportStatus::IntegrityViolation);
            api.setReplyLen(0);
            return;
        }
        if (buf.size() < bytes)
            buf.resize(bytes);
    }

    kernel::Kernel &kern = transport.kernelRef();
    kernel::Process &proc = *serverThread.process();

    switch (op) {
      case BlockOp::Read: {
        reads.inc(req.count);
        auto res = kern.userRead(api.core(), proc,
                                 store + req.blockNo * blockBytes,
                                 buf.data(), bytes);
        if (!res.ok) {
            api.fail(core::TransportStatus::CopyFault);
            api.setReplyLen(0);
            return;
        }
        api.writeReply(0, buf.data(), bytes);
        api.setReplyLen(bytes);
        return;
      }
      case BlockOp::Write: {
        // Every durable write is an enumerable crash site: the
        // explorer re-runs the workload crashing here, and once
        // crashed the store stops absorbing writes - the disk image
        // is frozen at the exact write prefix a power cut leaves.
        FaultInjector *inj =
            transport.kernelRef().machine().faultInjector();
        if (inj && inj->enabled) {
            inj->atCrashSite("block-write");
            if (inj->crashed()) {
                suppressedWrites.inc(req.count);
                api.setReplyLen(0);
                return;
            }
        }
        writes.inc(req.count);
        api.readRequest(blockDataOffset, buf.data(), bytes);
        auto res = kern.userWrite(api.core(), proc,
                                  store + req.blockNo * blockBytes,
                                  buf.data(), bytes);
        if (!res.ok) {
            api.fail(core::TransportStatus::CopyFault);
            api.setReplyLen(0);
            return;
        }
        api.setReplyLen(0);
        return;
      }
      case BlockOp::Info: {
        uint64_t info[2] = {nblocks, blockBytes};
        api.writeReply(0, info, sizeof(info));
        api.setReplyLen(sizeof(info));
        return;
      }
    }
    panic("unknown block-device opcode %lu",
          (unsigned long)api.opcode());
}

} // namespace xpc::services
