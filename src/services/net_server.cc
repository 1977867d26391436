#include "net_server.hh"

#include <cstring>
#include <vector>

#include "services/proto.hh"
#include "sim/logging.hh"

namespace xpc::services {

using namespace proto;

LoopbackDeviceServer::LoopbackDeviceServer(
    core::Transport &tr, kernel::Thread &handler_thread,
    uint32_t drop_every_nth)
    : dropEveryNth(drop_every_nth)
{
    core::ServiceDesc desc;
    desc.name = "loopback";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = 4096;
    svcId = tr.registerService(
        desc, [this](core::ServerApi &api) {
            panic_if(api.opcode() != uint64_t(DevOp::Xmit),
                     "unknown device opcode");
            frameCounter++;
            if (dropEveryNth != 0 &&
                frameCounter % dropEveryNth == 0) {
                // The wire ate it: no reply payload.
                framesDropped.inc();
                api.setReplyLen(0);
                return;
            }
            framesReflected.inc();
            // A loopback "transmits" by handing the frame straight
            // back: the reply is the request.
            api.replyFromRequest(0, api.requestLen());
        });
}

NetStackServer::NetStackServer(core::Transport &tr,
                               kernel::Thread &handler_thread,
                               core::ServiceId loopback_svc)
    : transport(tr), serverThread(handler_thread),
      loopbackSvc(loopback_svc)
{
    hw::Core &boot_core = transport.kernelRef().machine().core(
        handler_thread.sched.homeCore);
    transport.prepareScratch(boot_core, handler_thread, 4096);

    core::ServiceDesc desc;
    desc.name = "netstack";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = 256 * 1024;
    desc.selfAppendBytes = sizeof(net::TcpHeader) + fsDataOffset;
    desc.callees = {loopback_svc};
    svcId = transport.registerService(
        desc, [this](core::ServerApi &api) { handle(api); });
}

void
NetStackServer::xmitFrame(hw::Core &core, bool in_handler,
                          std::vector<uint8_t> &frame)
{
    // TCP output path: header construction, PCB bookkeeping and the
    // Internet checksum over the payload.
    core.spend(costs.perSegment);
    core.spend(Cycles(costs.checksumPerByte * frame.size()));
    std::vector<uint8_t> reflected(frame.size());
    uint64_t got = transport.scratchCall(
        core, serverThread, in_handler, loopbackSvc,
        uint64_t(DevOp::Xmit), frame.data(), frame.size(),
        reflected.data(), reflected.size());
    if (got == 0)
        return; // the device dropped it; RTO will resend
    panic_if(got != frame.size(), "loopback truncated a frame");
    tcp.deliver(reflected.data(), got);
}

void
NetStackServer::handle(core::ServerApi &api)
{
    uint8_t hdr_raw[sizeof(FsMsg)];
    api.readRequest(0, hdr_raw, sizeof(hdr_raw));
    FsMsg req = unpackFrom<FsMsg>(hdr_raw);
    FsMsg reply{};

    hw::Core &core = api.core();
    core.spend(costs.perCall);
    auto xmit = [&](std::vector<uint8_t> &frame) {
        xmitFrame(core, true, frame);
    };

    switch (NetOp(api.opcode())) {
      case NetOp::Socket:
        reply.a = tcp.socket();
        break;
      case NetOp::Listen:
        reply.a = tcp.listen(req.a, uint16_t(req.b));
        break;
      case NetOp::Connect:
        reply.a = tcp.connect(req.a, uint16_t(req.b), xmit);
        break;
      case NetOp::Send: {
        std::vector<uint8_t> data(req.c);
        if (req.c > 0)
            api.readRequest(fsDataOffset, data.data(),
                            uint64_t(req.c));
        reply.a = tcp.send(req.a, data.data(), uint64_t(req.c), xmit);
        // RTO loop: resend anything a lossy device dropped, with a
        // bounded number of rounds.
        for (int rto = 0;
             rto < 16 && tcp.pendingBytes(req.a) > 0; rto++) {
            tcp.retransmit(req.a, xmit);
        }
        break;
      }
      case NetOp::Recv: {
        std::vector<uint8_t> data(req.c);
        int64_t n = tcp.recv(req.a, data.data(), uint64_t(req.c));
        reply.a = n;
        if (n > 0)
            api.writeReply(fsDataOffset, data.data(), uint64_t(n));
        break;
      }
      case NetOp::CloseSock:
        reply.a = tcp.close(req.a);
        break;
      default:
        panic("unknown net opcode %lu", (unsigned long)api.opcode());
    }

    uint8_t reply_raw[sizeof(FsMsg)];
    packInto(reply_raw, reply);
    api.writeReply(0, reply_raw, sizeof(reply_raw));
    if (api.opcode() == uint64_t(NetOp::Recv) && reply.a > 0)
        api.setReplyLen(fsDataOffset + uint64_t(reply.a));
    else
        api.setReplyLen(sizeof(FsMsg));
}

int64_t
NetStackServer::clientSocket(core::Transport &tr, hw::Core &core,
                             kernel::Thread &client,
                             core::ServiceId svc)
{
    return fsMsgCall(tr, core, client, svc, uint64_t(NetOp::Socket), FsMsg{},
                     nullptr, 0, nullptr, 0);
}

int64_t
NetStackServer::clientListen(core::Transport &tr, hw::Core &core,
                             kernel::Thread &client,
                             core::ServiceId svc, int64_t sock,
                             uint16_t port)
{
    FsMsg msg;
    msg.a = sock;
    msg.b = port;
    return fsMsgCall(tr, core, client, svc, uint64_t(NetOp::Listen), msg,
                     nullptr, 0, nullptr, 0);
}

int64_t
NetStackServer::clientConnect(core::Transport &tr, hw::Core &core,
                              kernel::Thread &client,
                              core::ServiceId svc, int64_t sock,
                              uint16_t port)
{
    FsMsg msg;
    msg.a = sock;
    msg.b = port;
    return fsMsgCall(tr, core, client, svc, uint64_t(NetOp::Connect), msg,
                     nullptr, 0, nullptr, 0);
}

int64_t
NetStackServer::clientSend(core::Transport &tr, hw::Core &core,
                           kernel::Thread &client, core::ServiceId svc,
                           int64_t sock, const void *data, uint64_t len)
{
    FsMsg msg;
    msg.a = sock;
    msg.c = int64_t(len);
    return fsMsgCall(tr, core, client, svc, uint64_t(NetOp::Send), msg, data,
                     len, nullptr, 0);
}

int64_t
NetStackServer::clientRecv(core::Transport &tr, hw::Core &core,
                           kernel::Thread &client, core::ServiceId svc,
                           int64_t sock, void *dst, uint64_t maxlen)
{
    FsMsg msg;
    msg.a = sock;
    msg.c = int64_t(maxlen);
    return fsMsgCall(tr, core, client, svc, uint64_t(NetOp::Recv), msg, nullptr,
                     0, dst, maxlen);
}

} // namespace xpc::services
