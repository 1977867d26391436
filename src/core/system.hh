/**
 * @file
 * One-stop assembly of a simulated system under test: machine,
 * kernel personality, XPC engine + manager + runtime, and the
 * transport that services should run on. Benches, tests and examples
 * build a System and wire services to its transport.
 */

#ifndef XPC_CORE_SYSTEM_HH
#define XPC_CORE_SYSTEM_HH

#include <memory>

#include "core/transport_copying.hh"
#include "core/transport_xpc.hh"
#include "core/xpc_runtime.hh"
#include "hw/machine.hh"
#include "kernel/sel4.hh"
#include "kernel/zircon.hh"

namespace xpc::core {

/** The five system configurations of the paper's evaluation. */
enum class SystemFlavor
{
    Sel4TwoCopy, ///< seL4, shared memory with safe two-copy discipline
    Sel4OneCopy, ///< seL4, shared memory, one copy (TOCTTOU-prone)
    Sel4Xpc,     ///< seL4 ported to XPC
    Zircon,      ///< Zircon channels, kernel twofold copy
    ZirconXpc,   ///< Zircon ported to XPC
};

/** @return a printable name for @p flavor. */
const char *systemFlavorName(SystemFlavor flavor);

/** Construction options for a System. */
struct SystemOptions
{
    hw::MachineConfig machine;
    SystemFlavor flavor = SystemFlavor::Sel4Xpc;
    engine::XpcEngineOptions engineOpts{};
    XpcRuntimeOptions runtimeOpts{};
    /**
     * Per-request deadline budget of every call path, kernel IPC and
     * the XPC runtime alike: it sets Kernel::callDeadline, which all
     * three paths read. 0 = off.
     */
    Cycles deadlineCycles{0};

    SystemOptions() : machine(hw::rocketU500()) {}
};

/** A fully wired simulated system. */
class System
{
  public:
    explicit System(const SystemOptions &options = SystemOptions());

    SystemFlavor flavor() const { return opts.flavor; }

    hw::Machine &machine() { return *mach; }
    hw::Core &core(CoreId id = 0) { return mach->core(id); }
    kernel::Kernel &kern() { return *kernelPtr; }
    engine::XpcEngine &engine() { return *enginePtr; }
    kernel::XpcManager &manager() { return *managerPtr; }
    XpcRuntime &runtime() { return *runtimePtr; }
    Transport &transport() { return *transportPtr; }

    /** Create a process plus one thread homed on @p core_id, owned
     *  by @p tenant (0 = the default single-tenant world). */
    kernel::Thread &spawn(const std::string &name, CoreId core_id = 0,
                          kernel::TenantId tenant = kernel::defaultTenant);

    /**
     * Root of this system's stat registry: machine (cores, caches,
     * TLBs), kernel (incl. phase attribution), engine and runtime
     * all hang off it. Dump with stats().dumpJson(); reset
     * between measurement phases with stats().resetAll().
     */
    StatGroup &stats() { return statsRoot; }

  private:
    StatGroup statsRoot{"system"};
    SystemOptions opts;
    std::unique_ptr<hw::Machine> mach;
    std::unique_ptr<kernel::Kernel> kernelPtr;
    std::unique_ptr<engine::XpcEngine> enginePtr;
    std::unique_ptr<kernel::XpcManager> managerPtr;
    std::unique_ptr<XpcRuntime> runtimePtr;
    std::unique_ptr<Transport> transportPtr;
};

} // namespace xpc::core

#endif // XPC_CORE_SYSTEM_HH
