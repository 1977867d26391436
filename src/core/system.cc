#include "system.hh"

#include "sim/logging.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

namespace xpc::core {

const char *
systemFlavorName(SystemFlavor flavor)
{
    switch (flavor) {
      case SystemFlavor::Sel4TwoCopy:
        return "seL4-twocopy";
      case SystemFlavor::Sel4OneCopy:
        return "seL4-onecopy";
      case SystemFlavor::Sel4Xpc:
        return "seL4-XPC";
      case SystemFlavor::Zircon:
        return "Zircon";
      case SystemFlavor::ZirconXpc:
        return "Zircon-XPC";
    }
    return "unknown";
}

System::System(const SystemOptions &options) : opts(options)
{
    mach = std::make_unique<hw::Machine>(opts.machine);

    switch (opts.flavor) {
      case SystemFlavor::Sel4TwoCopy:
      case SystemFlavor::Sel4Xpc:
        kernelPtr = std::make_unique<kernel::Sel4Kernel>(*mach);
        break;
      case SystemFlavor::Sel4OneCopy:
        kernelPtr = std::make_unique<kernel::Sel4Kernel>(
            *mach, kernel::LongMsgMode::OneCopy);
        break;
      case SystemFlavor::Zircon:
      case SystemFlavor::ZirconXpc:
        kernelPtr = std::make_unique<kernel::ZirconKernel>(*mach);
        break;
    }

    kernelPtr->callDeadline = opts.deadlineCycles;

    enginePtr =
        std::make_unique<engine::XpcEngine>(*mach, opts.engineOpts);
    managerPtr =
        std::make_unique<kernel::XpcManager>(*kernelPtr, *enginePtr);
    runtimePtr = std::make_unique<XpcRuntime>(*kernelPtr, *managerPtr,
                                              opts.runtimeOpts);

    switch (opts.flavor) {
      case SystemFlavor::Sel4TwoCopy:
        transportPtr =
            std::make_unique<CopyingTransport>(*kernelPtr, "sel4-2copy");
        break;
      case SystemFlavor::Sel4OneCopy:
        transportPtr =
            std::make_unique<CopyingTransport>(*kernelPtr, "sel4-1copy");
        break;
      case SystemFlavor::Zircon:
        transportPtr =
            std::make_unique<CopyingTransport>(*kernelPtr, "zircon");
        break;
      case SystemFlavor::Sel4Xpc:
      case SystemFlavor::ZirconXpc:
        transportPtr = std::make_unique<XpcTransport>(*runtimePtr);
        break;
    }

    mach->stats.setParent(&statsRoot);
    kernelPtr->stats.setParent(&statsRoot);
    enginePtr->stats.setParent(&statsRoot);
    runtimePtr->stats.setParent(&statsRoot);
    transportPtr->stats.setParent(&statsRoot);
}

kernel::Thread &
System::spawn(const std::string &name, CoreId core_id,
              kernel::TenantId tenant)
{
    kernel::Process &p = kernelPtr->createProcess(name);
    kernel::Thread &t = kernelPtr->createThread(p, core_id);
    t.tenant = tenant;
    mach->tracer().setTrackName(req::threadLane(uint32_t(t.id())), name);
    managerPtr->initThread(t);
    if (!kernelPtr->current(core_id))
        managerPtr->installThread(mach->core(core_id), t);
    return t;
}

} // namespace xpc::core
