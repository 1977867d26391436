/**
 * @file
 * The copying transport: one call path for every kernel personality
 * whose IPC copies message bytes - seL4 endpoints in the one-copy or
 * two-copy shared-memory discipline, and Zircon channels with their
 * kernel twofold copy.
 *
 * Clients produce into a private request buffer; the kernel's port
 * moves the bytes (registers, IPC buffer, shared window or channel
 * buffer, as the personality decides); nested calls copy hop by hop.
 * Only the kernel::Kernel port interface is used, so a new substrate
 * is one more cost model behind that interface, not another
 * transport.
 */

#ifndef XPC_CORE_TRANSPORT_COPYING_HH
#define XPC_CORE_TRANSPORT_COPYING_HH

#include "core/transport.hh"

namespace xpc::core {

/** Transport over a kernel's ports. */
class CopyingTransport : public Transport
{
  public:
    /** @param name reported by name() (e.g. "sel4-2copy", "zircon"). */
    CopyingTransport(kernel::Kernel &kernel, const char *name);

    const char *name() const override { return transportName; }
    kernel::Kernel &kernelRef() override { return kern; }

    ServiceId registerService(const ServiceDesc &desc,
                              ServiceHandler handler) override;
    void connect(kernel::Thread &client, ServiceId svc) override;
    VAddr requestArea(hw::Core &core, kernel::Thread &client,
                      uint64_t len) override;
    bool clientWrite(hw::Core &core, kernel::Thread &client,
                     uint64_t off, const void *src,
                     uint64_t len) override;
    bool clientRead(hw::Core &core, kernel::Thread &client,
                    uint64_t off, void *dst, uint64_t len) override;
    CallResult call(hw::Core &core, kernel::Thread &client,
                    ServiceId svc, uint64_t opcode, uint64_t req_len,
                    uint64_t reply_cap) override;

  protected:
    bool readStagedRequest(hw::Core &core, kernel::Thread &client,
                           uint64_t off, void *dst,
                           uint64_t len) override;

  private:
    struct Conn
    {
        VAddr reqVa = 0;
        VAddr replyVa = 0;
        uint64_t len = 0;
    };

    kernel::Kernel &kern;
    const char *transportName;
    std::vector<uint64_t> ports;
    /** Per-client message buffers (shared across services: one
     *  produce area per thread, like a libc staging buffer). */
    std::map<kernel::ThreadId, Conn> conns;

    Conn &connFor(kernel::Thread &client, uint64_t min_len);
};

} // namespace xpc::core

#endif // XPC_CORE_TRANSPORT_COPYING_HH
