/**
 * @file
 * The ramdisk block-device server (the paper's "in-memory ram disk
 * server"). Disk contents live in the server process's simulated
 * memory, so serving a block is real, charged data movement.
 */

#ifndef XPC_SERVICES_BLOCK_DEVICE_HH
#define XPC_SERVICES_BLOCK_DEVICE_HH

#include <vector>

#include "core/transport.hh"
#include "sim/stats.hh"

namespace xpc::services {

/** A ramdisk served over IPC. */
class BlockDeviceServer
{
  public:
    static constexpr uint64_t blockBytes = 4096;
    /** The most block bytes one read or write may move (16 blocks),
     *  and the service's message size. */
    static constexpr uint64_t maxMsgBytes = 64 * 1024;

    /**
     * Create and register the service.
     * @param handler_thread the server thread (its process stores
     *        the disk image)
     * @param nblocks disk capacity in blocks
     */
    BlockDeviceServer(core::Transport &transport,
                      kernel::Thread &handler_thread, uint64_t nblocks);

    core::ServiceId id() const { return svcId; }

    Counter reads;
    Counter writes;
    /** Writes dropped after a crash-site firing: the power is off,
     *  so the store freezes at the exact prefix written so far. */
    Counter suppressedWrites;

  private:
    core::Transport &transport;
    kernel::Thread &serverThread;
    uint64_t nblocks;
    VAddr store = 0;
    core::ServiceId svcId = 0;
    /** The blocks of the call being served, reused from call to call
     *  and grown to at most maxMsgBytes: every byte a call reads is
     *  one it wrote first. */
    std::vector<uint8_t> buf;

    void handle(core::ServerApi &api);
};

} // namespace xpc::services

#endif // XPC_SERVICES_BLOCK_DEVICE_HH
