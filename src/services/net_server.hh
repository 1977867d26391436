/**
 * @file
 * The network servers of the paper's section 5.3: a network-stack
 * server (lwIP-like, holding the TCP engine) and a loopback device
 * server. Every transmitted segment crosses IPC to the device server
 * and back, so throughput directly reflects IPC cost.
 */

#ifndef XPC_SERVICES_NET_SERVER_HH
#define XPC_SERVICES_NET_SERVER_HH

#include "core/transport.hh"
#include "services/net/tcp.hh"
#include "services/proto.hh"

namespace xpc::services {

/** The loopback device server: reflects every frame. */
class LoopbackDeviceServer
{
  public:
    /**
     * @param drop_every_nth when non-zero, drop every Nth frame
     *        (reply with zero bytes), exercising the TCP
     *        retransmission path.
     */
    LoopbackDeviceServer(core::Transport &transport,
                         kernel::Thread &handler_thread,
                         uint32_t drop_every_nth = 0);

    core::ServiceId id() const { return svcId; }

    Counter framesReflected;
    Counter framesDropped;

  private:
    core::ServiceId svcId = 0;
    uint32_t dropEveryNth;
    uint64_t frameCounter = 0;
};

/** Protocol-processing compute costs (lwIP on an in-order core). */
struct NetStackCosts
{
    /** Socket-layer entry per send/recv call. */
    static constexpr Cycles perCall{1800};
    /** TCP/IP output path per segment (header build, pcb update). */
    static constexpr Cycles perSegment{1500};
    /** Checksum cycles per payload byte (computed + charged). */
    static constexpr uint32_t checksumPerByte = 2;
};

/** The network-stack server. */
class NetStackServer
{
  public:
    NetStackServer(core::Transport &transport,
                   kernel::Thread &handler_thread,
                   core::ServiceId loopback_svc);

    core::ServiceId id() const { return svcId; }
    net::TcpStack &stack() { return tcp; }
    NetStackCosts costs;

    /** Returned by client wrappers when the call itself failed. */
    static constexpr int64_t callFailed = proto::fsMsgCallFailed;

    /// @name Typed client wrappers.
    /// @{
    static int64_t clientSocket(core::Transport &tr, hw::Core &core,
                                kernel::Thread &client,
                                core::ServiceId svc);
    static int64_t clientListen(core::Transport &tr, hw::Core &core,
                                kernel::Thread &client,
                                core::ServiceId svc, int64_t sock,
                                uint16_t port);
    static int64_t clientConnect(core::Transport &tr, hw::Core &core,
                                 kernel::Thread &client,
                                 core::ServiceId svc, int64_t sock,
                                 uint16_t port);
    static int64_t clientSend(core::Transport &tr, hw::Core &core,
                              kernel::Thread &client,
                              core::ServiceId svc, int64_t sock,
                              const void *data, uint64_t len);
    static int64_t clientRecv(core::Transport &tr, hw::Core &core,
                              kernel::Thread &client,
                              core::ServiceId svc, int64_t sock,
                              void *dst, uint64_t maxlen);
    /// @}

  private:
    core::Transport &transport;
    kernel::Thread &serverThread;
    core::ServiceId svcId = 0;
    core::ServiceId loopbackSvc;
    net::TcpStack tcp;

    void handle(core::ServerApi &api);

    /** Transmit a frame to the device server and deliver the
     *  reflected copy back into the stack. Dropped frames (lossy
     *  device) are simply not delivered; the retransmission loop in
     *  the Send handler recovers them. */
    void xmitFrame(hw::Core &core, bool in_handler,
                   std::vector<uint8_t> &frame);
};

} // namespace xpc::services

#endif // XPC_SERVICES_NET_SERVER_HH
