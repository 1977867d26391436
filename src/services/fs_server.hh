/**
 * @file
 * The file-system server: xv6fs exported over IPC, with its disk
 * traffic going to the BlockDeviceServer through scratch calls -
 * the two-server FS architecture of the paper's section 5.3.
 */

#ifndef XPC_SERVICES_FS_SERVER_HH
#define XPC_SERVICES_FS_SERVER_HH

#include <array>
#include <string>
#include <vector>

#include "services/block_device.hh"
#include "services/fs/xv6fs.hh"
#include "services/proto.hh"
#include "services/service.hh"

namespace xpc::services {

/** xv6fs served over IPC. */
class FsServer : public Service
{
  public:
    /**
     * Create the server and mount the disk.
     * @param fs_thread the server thread
     * @param block_svc the block-device service to talk to
     * @param format true: mkfs a fresh volume first (the default).
     *        false: attach to the existing volume - the crash-restart
     *        path, where mount() replays any committed journal before
     *        the service registers (stateful recovery).
     */
    FsServer(core::Transport &transport, kernel::Thread &fs_thread,
             core::ServiceId block_svc, uint64_t disk_blocks,
             bool format = true);

    fs::Xv6Fs &fsImpl() { return filesystem; }

    /** Client-wrapper return value when the IPC itself failed (as
     *  opposed to an FS-level error like fsNoEnt). */
    static constexpr int64_t callFailed = proto::fsMsgCallFailed;

    /** Requests rejected before touching the file system: frame too
     *  short for the header, hostile path/IO lengths, or an unknown
     *  opcode. Each rejection is a typed IntegrityViolation, never a
     *  crash - a hostile client must not take the FS down. */
    Counter malformedRequests;

    /// @name Typed client wrappers (drive the service over IPC).
    /// @{
    static int64_t clientOpen(core::Transport &tr, hw::Core &core,
                              kernel::Thread &client,
                              core::ServiceId svc,
                              const std::string &path, bool create);
    static int64_t clientRead(core::Transport &tr, hw::Core &core,
                              kernel::Thread &client,
                              core::ServiceId svc, int64_t fd,
                              uint64_t off, void *dst, uint64_t len);
    static int64_t clientWrite(core::Transport &tr, hw::Core &core,
                               kernel::Thread &client,
                               core::ServiceId svc, int64_t fd,
                               uint64_t off, const void *src,
                               uint64_t len);
    static int64_t clientClose(core::Transport &tr, hw::Core &core,
                               kernel::Thread &client,
                               core::ServiceId svc, int64_t fd);
    /** @return the file's size in bytes (FsOp::Stat). */
    static int64_t clientStat(core::Transport &tr, hw::Core &core,
                              kernel::Thread &client,
                              core::ServiceId svc, int64_t fd);
    /// @}

  private:
    /** BlockIo routed over IPC scratch calls. */
    class IpcBlockIo : public fs::BlockIo
    {
      public:
        IpcBlockIo(core::Transport &tr, kernel::Thread &thread,
                   core::ServiceId disk)
            : transport(tr), fsThread(thread), diskSvc(disk)
        {}

        void read(uint32_t block_no, void *dst) override;
        void write(uint32_t block_no, const void *src) override;

        /** Per-request context. */
        hw::Core *core = nullptr;
        bool inHandler = false;
        /** Set when a disk call failed even after retries; the FS
         *  handler checks it and fails the whole invocation. */
        bool ioFailed = false;

      private:
        core::Transport &transport;
        kernel::Thread &fsThread;
        core::ServiceId diskSvc;
        /** The block-write request, reused: the FS thread issues one
         *  block write at a time, and the device never calls back. */
        std::array<uint8_t, proto::blockDataOffset +
                                BlockDeviceServer::blockBytes>
            writeReq{};
    };

    IpcBlockIo blockIo;
    fs::Xv6Fs filesystem;
    /** The bytes of a Read or Write being served, reused from call to
     *  call and grown to at most fsMaxIoBytes: a Read sends only the
     *  bytes pread filled, a Write stores only the bytes it
     *  fetched. */
    std::vector<uint8_t> ioBuf;

    void handle(core::ServerApi &api);
};

} // namespace xpc::services

#endif // XPC_SERVICES_FS_SERVER_HH
