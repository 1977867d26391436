/**
 * @file
 * A small TCP implementation in the lwIP spirit: sockets, listen /
 * connect pairing, MSS segmentation with real 20-byte TCP headers
 * and a computed Internet checksum, in-order delivery, receive
 * buffering and cumulative ACKs. Loss and retransmission timers are
 * out of scope (the device is a lossless loopback, as in the paper's
 * network experiment), but sequence bookkeeping is fully tracked so
 * the tests can assert it.
 */

#ifndef XPC_SERVICES_NET_TCP_HH
#define XPC_SERVICES_NET_TCP_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "sim/stats.hh"

namespace xpc::services::net {

/** Maximum segment size (Ethernet-ish). */
constexpr uint64_t tcpMss = 1460;

/** TCP header (RFC 793, 20 bytes, no options). */
struct TcpHeader
{
    uint16_t srcPort;
    uint16_t dstPort;
    uint32_t seq;
    uint32_t ack;
    uint8_t dataOff; ///< header length in 32-bit words << 4
    uint8_t flags;
    uint16_t window;
    uint16_t checksum;
    uint16_t urgent;
};

constexpr uint8_t tcpFlagSyn = 0x02;
constexpr uint8_t tcpFlagAck = 0x10;
constexpr uint8_t tcpFlagFin = 0x01;
constexpr uint8_t tcpFlagPsh = 0x08;

/** RFC 1071 Internet checksum over @p len bytes. */
uint16_t inetChecksum(const uint8_t *data, uint64_t len);

/** Socket states (the subset a loopback needs). */
enum class TcpState
{
    Closed,
    Listen,
    Established,
};

/** One socket / protocol control block. */
struct TcpSocket
{
    int64_t id = 0;
    TcpState state = TcpState::Closed;
    uint16_t localPort = 0;
    uint16_t remotePort = 0;
    int64_t peer = -1; ///< socket id of the other end
    uint32_t sndNxt = 0;
    uint32_t rcvNxt = 0;
    uint64_t bytesSent = 0;
    uint64_t bytesReceived = 0;
    std::deque<uint8_t> recvBuf;
    /** Sent-but-unacknowledged payloads, keyed by sequence number
     *  (the retransmission queue). */
    std::map<uint32_t, std::vector<uint8_t>> unacked;
};

/**
 * The protocol engine. It is transport-agnostic: the owner provides
 * a frame-transmit hook (IPC to the device server) and calls
 * deliver() for frames that come back.
 */
class TcpStack
{
  public:
    /** Create a socket. @return its id. */
    int64_t socket();

    /** Put @p sock into LISTEN on @p port. */
    int64_t listen(int64_t sock, uint16_t port);

    /**
     * Connect @p sock to the listener on @p port (loopback). The
     * three-way handshake runs through @p xmit like any segment.
     */
    int64_t connect(int64_t sock, uint16_t port,
                    const std::function<void(std::vector<uint8_t> &)>
                        &xmit);

    /**
     * Segment @p len bytes and push each segment through @p xmit.
     * @return bytes queued (all of them, window permitting).
     */
    int64_t send(int64_t sock, const uint8_t *data, uint64_t len,
                 const std::function<void(std::vector<uint8_t> &)>
                     &xmit);

    /** Drain up to @p maxlen received bytes. */
    int64_t recv(int64_t sock, uint8_t *dst, uint64_t maxlen);

    /** Bytes sent on @p sock that the peer has not yet received. */
    uint64_t pendingBytes(int64_t sock);

    /**
     * Retransmit every unacknowledged segment of @p sock (the RTO
     * path, driven by the owner when the device may drop frames).
     * @return segments resent.
     */
    uint32_t retransmit(int64_t sock,
                        const std::function<void(
                            std::vector<uint8_t> &)> &xmit);

    /** Handle a frame arriving from the device. */
    void deliver(const uint8_t *frame, uint64_t len);

    int64_t close(int64_t sock);

    const TcpSocket *find(int64_t sock) const;

    Counter segmentsSent;
    Counter segmentsReceived;
    Counter segmentsRetransmitted;
    Counter checksumFailures;

  private:
    std::map<int64_t, TcpSocket> sockets;
    std::map<uint16_t, int64_t> listeners;
    int64_t nextId = 1;
    /** Local port for this stack's next connect. */
    uint16_t nextEphemeralPort = 40000;

    TcpSocket *lookup(int64_t sock);
    TcpSocket *peerOf(TcpSocket &s);
    /** Drop retransmission-queue entries the peer has received. */
    void pruneAcked(TcpSocket &s);
    std::vector<uint8_t> makeSegment(TcpSocket &s, uint8_t flags,
                                     const uint8_t *payload,
                                     uint64_t len);
    std::vector<uint8_t> makeSegmentAt(TcpSocket &s, uint32_t seq,
                                       uint8_t flags,
                                       const uint8_t *payload,
                                       uint64_t len);
};

} // namespace xpc::services::net

#endif // XPC_SERVICES_NET_TCP_HH
