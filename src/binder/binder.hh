/**
 * @file
 * Android Binder on the simulator: the /dev/binder driver model
 * (transaction buffers, twofold copy, wakeups), the libbinder-style
 * framework (transact/onTransact, service manager), and the ashmem
 * subsystem - plus the XPC-optimized variants of paper section 4.3:
 *
 *  - Baseline: ioctl into the driver, copy_from_user + copy_to_user
 *    per direction, a scheduler wakeup per hop; ashmem transfers the
 *    fd but the receiver makes a defensive copy (TOCTTOU).
 *  - Binder-XPC: transact() rides xcall with the parcel in a relay
 *    segment; zero copies, no kernel.
 *  - Ashmem-XPC: the control transaction stays on the Binder driver
 *    path but the bulk payload lives in a relay segment whose
 *    ownership transfers, removing the defensive copy.
 */

#ifndef XPC_BINDER_BINDER_HH
#define XPC_BINDER_BINDER_HH

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "binder/parcel.hh"
#include "core/xpc_runtime.hh"

namespace xpc::binder {

/** Which IPC mechanism backs the Binder framework. */
enum class BinderMode
{
    Baseline,  ///< stock driver: twofold copy + wakeups
    XpcCall,   ///< Binder-XPC: xcall + relay segments throughout
    XpcAshmem, ///< Ashmem-XPC: stock control path, relay-seg payload
};

const char *binderModeName(BinderMode mode);

/** Calibrated driver/framework cost constants. */
struct BinderParams
{
    /** binder_ioctl entry/exit (on top of the trap costs). */
    static constexpr Cycles ioctlConst{800};
    /** Driver transaction bookkeeping: node and ref lookups, buffer
     *  allocation in the target's mmap area. */
    static constexpr Cycles driverLogic{1600};
    /** Waking the target proc's binder thread (schedule + switch). */
    static constexpr Cycles wakeup{5200};
    /** libbinder marshal/dispatch overhead per transact(). */
    static constexpr Cycles framework{2800};
    /** Binder's per-process transaction buffer limit (1 MiB-ish). */
    static constexpr uint64_t maxTransaction = 1 << 20;
};

/** An ashmem region handle (the "fd"). */
struct AshmemRegion
{
    uint64_t fd = 0;
    uint64_t size = 0;
};

class BinderSystem;

/** The server's view of one incoming transaction. */
class BinderTxn
{
  public:
    uint32_t code() const { return txnCode; }
    /** The unmarshaled request parcel (bytes already charged). */
    Parcel &data() { return request; }
    /** The reply parcel to fill in. */
    Parcel &reply() { return replyParcel; }

    /** Charged read from a received ashmem region. On the baseline
     *  this reads the defensive private copy. */
    void readAshmem(const AshmemRegion &region, uint64_t off,
                    void *dst, uint64_t len);

    hw::Core &core() { return coreRef; }

  private:
    friend class BinderSystem;

    BinderTxn(BinderSystem &sys, hw::Core &core, uint32_t code,
              Parcel request)
        : owner(sys), coreRef(core), txnCode(code),
          request(std::move(request))
    {}

    BinderSystem &owner;
    hw::Core &coreRef;
    uint32_t txnCode;
    Parcel request;
    Parcel replyParcel;
    /** Baseline: fd -> private defensive copy the receiver made. */
    std::map<uint64_t, VAddr> privateCopies;
};

/** Handler a service installs (its onTransact). */
using TransactHandler = std::function<void(BinderTxn &)>;

/** Outcome of a transaction, with the measured latency. */
struct TxnOutcome
{
    bool ok = false;
    Parcel reply;
    Cycles latency;
};

/**
 * The whole Binder stack for one simulated system. Combines the
 * driver, framework and service-manager roles (they are distinct
 * layers on Android but share one lock-step model here).
 */
class BinderSystem
{
  public:
    /**
     * @param runtime XPC runtime; required for the XPC modes, may be
     *        null for Baseline.
     */
    BinderSystem(kernel::Kernel &kernel, core::XpcRuntime *runtime,
                 BinderMode mode);

    BinderMode mode() const { return binderMode; }
    BinderParams params;

    /** Register a named service (servicemanager::addService). */
    uint64_t addService(const std::string &name,
                        kernel::Thread &server_thread,
                        TransactHandler handler);

    /** Resolve a name to a handle (servicemanager::getService). */
    uint64_t getService(kernel::Thread &client,
                        const std::string &name);

    /** The client-side transact() of BpBinder. */
    TxnOutcome transact(hw::Core &core, kernel::Thread &client,
                        uint64_t handle, uint32_t code,
                        const Parcel &data);

    /// @name Ashmem.
    /// @{
    AshmemRegion ashmemCreate(hw::Core &core, kernel::Thread &owner,
                              uint64_t size);
    /** Charged write into an owned region (producer side). */
    void ashmemWrite(hw::Core &core, const AshmemRegion &region,
                     uint64_t off, const void *src, uint64_t len);
    /** Charged read from an owned region. */
    void ashmemRead(hw::Core &core, const AshmemRegion &region,
                    uint64_t off, void *dst, uint64_t len);
    /// @}

    Counter transactions;
    Counter bytesCopied;

  private:
    struct Service
    {
        std::string name;
        kernel::Thread *server = nullptr;
        TransactHandler handler;
        /** Target-side transaction buffer (driver mmap area). */
        VAddr txnBufVa = 0;
        /** XpcCall mode: backing x-entry. */
        uint64_t xEntryId = 0;
    };

    struct AshmemBacking
    {
        uint64_t size = 0;
        /** Baseline: kernel pages backing the shared mapping. */
        PAddr phys = 0;
        /** XPC modes: the relay segment. */
        uint64_t segId = 0;
        mem::SegWindow window;
    };

    kernel::Kernel &kern;
    core::XpcRuntime *rt;
    BinderMode binderMode;
    std::vector<Service> services;
    std::map<uint64_t, AshmemBacking> ashmems;
    uint64_t nextFd = 3;
    /** Kernel staging buffer for the twofold copy. */
    PAddr kernelBuf = 0;
    /** Per-client relay segments in XpcCall mode. */
    std::map<kernel::ThreadId, core::RelaySegHandle> clientSegs;
    /** Per-client user-space staging buffers (baseline mode). */
    std::map<kernel::ThreadId, VAddr> stagingBufs;
    /** Baseline defensive ashmem copies: (server, fd) -> private. */
    std::map<std::pair<kernel::ThreadId, uint64_t>, VAddr>
        defensiveCopies;

    TxnOutcome transactBaseline(hw::Core &core, kernel::Thread &client,
                                Service &svc, uint32_t code,
                                const Parcel &data);
    TxnOutcome transactXpc(hw::Core &core, kernel::Thread &client,
                           Service &svc, uint32_t code,
                           const Parcel &data);
    void receiveAshmem(hw::Core &core, BinderTxn &txn,
                       kernel::Thread &server, const Parcel &data);

    friend class BinderTxn;
};

} // namespace xpc::binder

#endif // XPC_BINDER_BINDER_HH
