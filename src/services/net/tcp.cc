#include "tcp.hh"

#include <cstddef>
#include <cstring>

#include "sim/logging.hh"

namespace xpc::services::net {

uint16_t
inetChecksum(const uint8_t *data, uint64_t len)
{
    uint32_t sum = 0;
    uint64_t i = 0;
    for (; i + 1 < len; i += 2)
        sum += uint32_t(data[i]) << 8 | data[i + 1];
    if (i < len)
        sum += uint32_t(data[i]) << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return uint16_t(~sum);
}

TcpSocket *
TcpStack::lookup(int64_t sock)
{
    auto it = sockets.find(sock);
    return it == sockets.end() ? nullptr : &it->second;
}

const TcpSocket *
TcpStack::find(int64_t sock) const
{
    auto it = sockets.find(sock);
    return it == sockets.end() ? nullptr : &it->second;
}

int64_t
TcpStack::socket()
{
    TcpSocket s;
    s.id = nextId++;
    sockets[s.id] = s;
    return s.id;
}

int64_t
TcpStack::listen(int64_t sock, uint16_t port)
{
    TcpSocket *s = lookup(sock);
    if (!s)
        return -1;
    if (listeners.count(port))
        return -1;
    s->state = TcpState::Listen;
    s->localPort = port;
    listeners[port] = sock;
    return 0;
}

std::vector<uint8_t>
TcpStack::makeSegment(TcpSocket &s, uint8_t flags,
                      const uint8_t *payload, uint64_t len)
{
    return makeSegmentAt(s, s.sndNxt, flags, payload, len);
}

std::vector<uint8_t>
TcpStack::makeSegmentAt(TcpSocket &s, uint32_t seq, uint8_t flags,
                        const uint8_t *payload, uint64_t len)
{
    std::vector<uint8_t> frame(sizeof(TcpHeader) + len);
    TcpHeader hdr{};
    hdr.srcPort = s.localPort;
    hdr.dstPort = s.remotePort;
    hdr.seq = seq;
    hdr.ack = s.rcvNxt;
    hdr.dataOff = uint8_t((sizeof(TcpHeader) / 4) << 4);
    hdr.flags = flags;
    hdr.window = 0xffff;
    hdr.checksum = 0;
    std::memcpy(frame.data(), &hdr, sizeof(hdr));
    if (len > 0)
        std::memcpy(frame.data() + sizeof(hdr), payload, len);
    uint16_t csum = inetChecksum(frame.data(), frame.size());
    std::memcpy(frame.data() + offsetof(TcpHeader, checksum), &csum,
                sizeof(csum));
    return frame;
}

int64_t
TcpStack::connect(
    int64_t sock, uint16_t port,
    const std::function<void(std::vector<uint8_t> &)> &xmit)
{
    TcpSocket *s = lookup(sock);
    if (!s)
        return -1;
    auto lit = listeners.find(port);
    if (lit == listeners.end())
        return -1;
    TcpSocket *l = lookup(lit->second);
    panic_if(!l, "listener socket vanished");

    s->localPort = nextEphemeralPort++;
    s->remotePort = port;

    // SYN through the device; deliver() completes the listener side.
    auto syn = makeSegment(*s, tcpFlagSyn, nullptr, 0);
    xmit(syn);

    // The loopback reflected our SYN; the listener spawned state and
    // its SYN-ACK came back through deliver(). Finalize both ends.
    s->state = TcpState::Established;
    s->peer = l->id;
    l->peer = s->id;
    l->remotePort = s->localPort;
    l->state = TcpState::Established;
    s->sndNxt++;
    l->rcvNxt = s->sndNxt;
    return 0;
}

int64_t
TcpStack::send(int64_t sock, const uint8_t *data, uint64_t len,
               const std::function<void(std::vector<uint8_t> &)> &xmit)
{
    TcpSocket *s = lookup(sock);
    if (!s || s->state != TcpState::Established)
        return -1;
    uint64_t done = 0;
    while (done < len) {
        uint64_t chunk = std::min(len - done, tcpMss);
        uint8_t flags = tcpFlagAck;
        if (done + chunk == len)
            flags |= tcpFlagPsh;
        auto frame = makeSegment(*s, flags, data + done, chunk);
        s->unacked.emplace(s->sndNxt,
                           std::vector<uint8_t>(data + done,
                                                data + done + chunk));
        s->sndNxt += uint32_t(chunk);
        s->bytesSent += chunk;
        segmentsSent.inc();
        xmit(frame);
        done += chunk;
    }
    return int64_t(done);
}

void
TcpStack::deliver(const uint8_t *frame, uint64_t len)
{
    panic_if(len < sizeof(TcpHeader), "runt TCP segment");
    segmentsReceived.inc();

    // Verify the checksum over the frame with the field zeroed.
    std::vector<uint8_t> copy(frame, frame + len);
    uint16_t received;
    std::memcpy(&received, copy.data() + offsetof(TcpHeader, checksum),
                sizeof(received));
    std::memset(copy.data() + offsetof(TcpHeader, checksum), 0,
                sizeof(received));
    if (inetChecksum(copy.data(), copy.size()) != received) {
        checksumFailures.inc();
        return;
    }

    TcpHeader hdr;
    std::memcpy(&hdr, frame, sizeof(hdr));

    if (hdr.flags & tcpFlagSyn) {
        // Handshake segments are finalized in connect(); nothing to
        // deliver.
        return;
    }

    // Find the destination socket: an established socket whose local
    // port matches the segment's destination.
    for (auto &[id, s] : sockets) {
        if (s.state == TcpState::Established &&
            s.localPort == hdr.dstPort &&
            s.remotePort == hdr.srcPort) {
            uint64_t payload = len - sizeof(TcpHeader);
            const uint8_t *data = frame + sizeof(TcpHeader);
            // In-order check (the loopback never reorders).
            if (s.rcvNxt != 0 && hdr.seq != s.rcvNxt) {
                // Out-of-window: drop. Keeps bookkeeping honest.
                return;
            }
            s.recvBuf.insert(s.recvBuf.end(), data, data + payload);
            s.rcvNxt = hdr.seq + uint32_t(payload);
            s.bytesReceived += payload;
            return;
        }
    }
    // No socket: drop, as lwIP would.
}

TcpSocket *
TcpStack::peerOf(TcpSocket &s)
{
    return s.peer >= 0 ? lookup(s.peer) : nullptr;
}

void
TcpStack::pruneAcked(TcpSocket &s)
{
    TcpSocket *peer = peerOf(s);
    if (!peer)
        return;
    for (auto it = s.unacked.begin(); it != s.unacked.end();) {
        if (it->first + it->second.size() <= peer->rcvNxt)
            it = s.unacked.erase(it);
        else
            ++it;
    }
}

uint64_t
TcpStack::pendingBytes(int64_t sock)
{
    TcpSocket *s = lookup(sock);
    if (!s)
        return 0;
    pruneAcked(*s);
    uint64_t total = 0;
    for (const auto &[seq, payload] : s->unacked)
        total += payload.size();
    return total;
}

uint32_t
TcpStack::retransmit(
    int64_t sock,
    const std::function<void(std::vector<uint8_t> &)> &xmit)
{
    TcpSocket *s = lookup(sock);
    if (!s)
        return 0;
    pruneAcked(*s);
    uint32_t resent = 0;
    // Resend in sequence order so the receiver's in-order check
    // accepts them.
    for (auto &[seq, payload] : s->unacked) {
        auto frame = makeSegmentAt(*s, seq, tcpFlagAck | tcpFlagPsh,
                                   payload.data(), payload.size());
        segmentsRetransmitted.inc();
        resent++;
        xmit(frame);
    }
    pruneAcked(*s);
    return resent;
}

int64_t
TcpStack::recv(int64_t sock, uint8_t *dst, uint64_t maxlen)
{
    TcpSocket *s = lookup(sock);
    if (!s)
        return -1;
    uint64_t n = std::min<uint64_t>(maxlen, s->recvBuf.size());
    for (uint64_t i = 0; i < n; i++) {
        dst[i] = s->recvBuf.front();
        s->recvBuf.pop_front();
    }
    return int64_t(n);
}

int64_t
TcpStack::close(int64_t sock)
{
    TcpSocket *s = lookup(sock);
    if (!s)
        return -1;
    if (s->state == TcpState::Listen)
        listeners.erase(s->localPort);
    sockets.erase(sock);
    return 0;
}

} // namespace xpc::services::net
