/**
 * @file
 * A behavioural model of Zircon channel IPC.
 *
 * Zircon has no synchronous-call fast path: a round trip is a
 * zx_channel_write, a scheduler hop to the server, a zx_channel_read
 * (kernel "twofold copy" on each direction), the handler, and the
 * same path back. That is why the paper measures it at tens of
 * thousands of cycles per round trip, and why batching (e.g. lwIP's
 * send buffering) helps it disproportionately.
 */

#ifndef XPC_KERNEL_ZIRCON_HH
#define XPC_KERNEL_ZIRCON_HH

#include <vector>

#include "kernel/kernel.hh"
#include "sim/phase.hh"

namespace xpc::kernel {

/** Calibrated software-cost constants of the channel path. */
struct ZirconParams
{
    /** Syscall entry/dispatch logic per zx_channel_* call. */
    static constexpr Cycles syscallConst{600};
    /** Port/object wait bookkeeping when blocking. */
    static constexpr Cycles portWait{1200};
    /** Scheduler hop between client and server threads. */
    static constexpr Cycles schedule{3000};
    /** Registers saved on a syscall. */
    static constexpr uint32_t syscallRegs = 31;
    /** Largest single channel message. */
    static constexpr uint64_t maxMsgBytes = 64 * 1024;
};

class ZirconKernel;

/** Server-side view of one received channel message: the bytes live
 *  in the server's private request and reply buffers. */
class ZirconServerCall : public ServerCall
{
  public:
    void readRequest(uint64_t off, void *dst, uint64_t len) override;
    void writeRequest(uint64_t off, const void *src,
                      uint64_t len) override;
    void writeReply(uint64_t off, const void *src,
                    uint64_t len) override;
    void readReply(uint64_t off, void *dst, uint64_t len) override;

  private:
    friend class ZirconKernel;

    ZirconServerCall(ZirconKernel &k, hw::Core &c, Thread &s);

    VAddr reqVa = 0;   ///< server-private request buffer
    VAddr replyVa = 0; ///< server-private reply buffer
};

/** Zircon-like kernel personality: a port is a channel. */
class ZirconKernel : public Kernel
{
  public:
    explicit ZirconKernel(hw::Machine &machine);

    ZirconParams params;

    uint64_t createPort(Thread &server, PortHandler handler) override;

    /** Holding the channel id is the capability: nothing to grant. */
    void grantPort(Thread &, uint64_t) override {}

    /** Write the request, block on the reply, read it back. */
    CallOutcome callPort(hw::Core &core, Thread &client, uint64_t port,
                         uint64_t opcode, VAddr req_va, uint64_t req_len,
                         VAddr reply_va, uint64_t reply_cap) override;

    Counter channelMsgs;

    /** Registry-visible phase attribution (one-way/handler/round
     *  trip; Zircon has no fast-path phase split to attribute). */
    PhaseStats phaseStats{"phases", &stats};

  private:
    struct Channel
    {
        uint64_t id;
        Thread *server;
        PortHandler handler;
        /** Kernel-owned message buffer (the twofold-copy staging). */
        PAddr kernelBuf = 0;
        /** Server-private request/reply buffers. */
        VAddr serverReqVa = 0;
        VAddr serverReplyVa = 0;
    };

    std::vector<Channel> channels;

    /** One zx_channel syscall's fixed cost. */
    void chargeSyscall(hw::Core &core);
};

} // namespace xpc::kernel

#endif // XPC_KERNEL_ZIRCON_HH
