#include "kernel.hh"

#include <cstring>

#include "sim/logging.hh"

namespace xpc::kernel {

CallBracket::CallBracket(Kernel &kernel, hw::Core &core,
                         CallOutcome &out, Counter &expired)
    : callerCore(core), out(out), expiredCalls(expired),
      ctx(kernel.machine().requests()), rscope(ctx),
      dscope(ctx,
             rscope.topLevel() && kernel.callDeadline.value() != 0
                 ? (core.now() + kernel.callDeadline).value()
                 : 0),
      dl(ctx.currentDeadline()), inj(kernel.machine().faultInjector()),
      tr(kernel.machine().tracer())
{
    if (!inj || !inj->enabled)
        return;
    ev = inj->eventAt(inj->beginCall());
    // A copy fault arms a one-shot memory fault that the next
    // message-byte access on this call path consumes.
    if (drew(FaultOp::CopyFault)) {
        inj->armMemFault();
        inj->recordFired(*ev);
    }
}

void
CallBracket::open(const char *span_cat, const char *span_name,
                  uint32_t caller_lane, TenantId caller_tenant)
{
    t0 = callerCore.now();
    cat = span_cat;
    name = span_name;
    lane = caller_lane;
    tenant = caller_tenant;
    tier = ctx.currentCriticality();
    opened = true;
    active = tr.enabled();
    if (!active)
        return;
    tr.begin(cat, name, t0.value(), lane);
    tr.flow(rscope.topLevel() ? trace::EventKind::FlowStart
                              : trace::EventKind::FlowStep,
            cat, "req", rscope.id(), t0.value(), lane);
}

CallBracket::~CallBracket()
{
    if (!opened)
        return;
    bool top = rscope.topLevel();
    uint64_t now = callerCore.now().value();
    if (top) {
        tr.instant(cat, "outcome", now, lane, callStatusName(out.status));
        if (tenant != defaultTenant)
            tr.instant(cat, "tenant", now, lane, std::to_string(tenant));
        if (tier != req::Criticality::Default)
            tr.instant(cat, "tier", now, lane, req::criticalityName(tier));
    }
    if (!active)
        return;
    if (top) {
        tr.flow(trace::EventKind::FlowEnd, cat, "req", rscope.id(), now,
                lane);
    }
    tr.end(cat, name, now, lane);
}

bool
CallBracket::expiredBeforeCall()
{
    if (dl == 0 || callerCore.now().value() < dl)
        return false;
    expiredCalls.inc();
    return true;
}

bool
CallBracket::expiredAfterHandler(Cycles now, const char *instant_cat)
{
    if (dl == 0 || now.value() < dl)
        return false;
    expiredCalls.inc();
    tr.instant(instant_cat, "deadline_expired", callerCore.now().value(),
               lane);
    return true;
}

void
CallBracket::fail(CallStatus status)
{
    out.ok = false;
    out.status = status;
    out.roundTrip = callerCore.now() - t0;
}

void
CallBracket::succeed(uint64_t reply_len)
{
    out.ok = true;
    out.replyLen = reply_len;
    out.roundTrip = callerCore.now() - t0;
}

uint32_t
CallBracket::strikeHandler(uint64_t req_len)
{
    if (drew(FaultOp::MutateAfterHandoff) && req_len > 0)
        inj->armHandoffMutation(*ev);
    if (drew(FaultOp::StallServer) && dl != 0) {
        stall = true;
        inj->recordFired(*ev);
    } else if (drew(FaultOp::SlowServer)) {
        inj->recordFired(*ev);
        return ev->arg > 1 ? ev->arg : 2;
    }
    return 1;
}

void
CallBracket::endHandler(hw::Core &hcore, Cycles h0, uint32_t server_lane)
{
    out.handlerCycles = hcore.now() - h0;
    if (inj)
        inj->clearHandoffMutation();
    if (!tr.enabled())
        return;
    tr.begin(cat, "handler", h0.value(), server_lane);
    tr.flow(trace::EventKind::FlowStep, cat, "req", rscope.id(),
            h0.value(), server_lane);
    tr.end(cat, "handler", hcore.now().value(), server_lane);
}

void
ServerCall::setReplyLen(uint64_t len)
{
    panic_if(len > replyCap, "reply longer than client buffer");
    replyLen = len;
}

bool
ServerCall::readServer(VAddr va, void *dst, uint64_t len)
{
    if (kern.userRead(coreRef, *server.process(), va, dst, len).ok)
        return true;
    std::memset(dst, 0, len);
    fail(CallStatus::CopyFault);
    return false;
}

void
ServerCall::writeServer(VAddr va, const void *src, uint64_t len)
{
    if (!kern.userWrite(coreRef, *server.process(), va, src, len).ok)
        fail(CallStatus::CopyFault);
}

void
ServerCall::fetchRequest(VAddr va, void *dst, uint64_t len)
{
    if (!readServer(va, dst, len) || len == 0)
        return;
    FaultInjector *inj = kern.machine().faultInjector();
    if (!inj || !inj->noteServerRead())
        return;
    uint64_t n = len < 8 ? len : 8;
    uint8_t tmp[8];
    if (!kern.userRead(coreRef, *server.process(), va, tmp, n).ok)
        return;
    for (uint64_t i = 0; i < n; i++)
        tmp[i] ^= 0xA5;
    kern.userWrite(coreRef, *server.process(), va, tmp, n);
}

Process::Process(ProcessId id, std::string name, hw::Machine &machine)
    : procId(id), procName(std::move(name)),
      addressSpace(Asid(id), machine)
{
}

VAddr
Process::alloc(uint64_t len)
{
    return addressSpace.allocMap(len, mem::permsRW);
}

Kernel::Kernel(hw::Machine &machine)
    : mach(machine), currentThread(machine.coreCount(), nullptr)
{
    stats.addCounter("traps", &traps);
    stats.addCounter("context_switches", &contextSwitches);
    stats.addCounter("deadline_expired", &deadlineExpired);
}

Process &
Kernel::createProcess(const std::string &name)
{
    auto id = ProcessId(processes.size() + 1);
    panic_if(id >= (1u << 16), "too many processes for the ASID space");
    processes.push_back(std::make_unique<Process>(id, name, mach));
    return *processes.back();
}

Thread &
Kernel::createThread(Process &process, CoreId home_core)
{
    panic_if(home_core >= mach.coreCount(),
             "thread homed on nonexistent core %u", home_core);
    auto id = ThreadId(threads.size() + 1);
    threads.push_back(std::make_unique<Thread>(id, &process, home_core));
    Thread &t = *threads.back();
    process.threads.push_back(&t);
    t.savedCsrs.pageTableRoot = process.space().root();
    t.savedCsrs.segList = process.space().segList();
    return t;
}

void
Kernel::trapEnter(hw::Core &core)
{
    traps.inc();
    core.spend(mach.config().core.trapEnter);
    core.setPrivilege(hw::Privilege::Kernel);
}

void
Kernel::trapExit(hw::Core &core)
{
    core.spend(mach.config().core.trapExit);
    core.setPrivilege(hw::Privilege::User);
}

void
Kernel::saveRestoreRegs(hw::Core &core, uint32_t nregs)
{
    core.spend(Cycles(mach.config().core.perRegSaveRestore.value() *
                      nregs));
}

void
Kernel::contextSwitchTo(hw::Core &core, Thread &next)
{
    contextSwitches.inc();
    Thread *prev = current(core.id());
    if (prev == &next)
        return;

    // Save + restore the architectural registers and scheduler work.
    saveRestoreRegs(core, 2 * mach.config().core.contextRegs);
    core.spend(costs.schedule);

    if (prev)
        prev->savedCsrs = core.csrs;
    core.csrs = next.savedCsrs;

    // Address-space switch.
    PAddr new_root = next.process()->space().root();
    if (core.csrs.pageTableRoot != new_root)
        core.csrs.pageTableRoot = new_root;
    if (!mach.config().mem.taggedTlb) {
        core.spend(mach.config().core.tlbFlush);
        mach.mem().flushTlb(core.id());
    }

    setCurrent(core.id(), &next);
    next.state = ThreadState::Running;
}

mem::TransContext
Kernel::userCtx(Process &process) const
{
    mem::TransContext ctx;
    ctx.pt = &process.space().pageTable();
    ctx.asid = process.space().asid();
    ctx.seg = nullptr;
    ctx.user = true;
    return ctx;
}

mem::AccessResult
Kernel::userRead(hw::Core &core, Process &process, VAddr va, void *dst,
                 uint64_t len)
{
    auto res = mach.mem().read(core.id(), userCtx(process), va, dst,
                               len);
    core.spend(res.cycles);
    return res;
}

mem::AccessResult
Kernel::userWrite(hw::Core &core, Process &process, VAddr va,
                  const void *src, uint64_t len)
{
    auto res = mach.mem().write(core.id(), userCtx(process), va, src,
                                len);
    core.spend(res.cycles);
    return res;
}

bool
Kernel::xorUserByte(hw::Core &core, Process &process, VAddr va,
                    uint8_t mask)
{
    uint8_t b = 0;
    if (!userRead(core, process, va, &b, 1).ok)
        return false;
    b ^= mask;
    userWrite(core, process, va, &b, 1);
    return true;
}

const char *
callStatusName(CallStatus status)
{
    switch (status) {
      case CallStatus::Ok:
        return "ok";
      case CallStatus::NoCapability:
        return "no-capability";
      case CallStatus::CopyFault:
        return "copy-fault";
      case CallStatus::Timeout:
        return "timeout";
      case CallStatus::Exhausted:
        return "exhausted";
      case CallStatus::ServiceDead:
        return "service-dead";
      case CallStatus::SegRevoked:
        return "seg-revoked";
      case CallStatus::LinkageCorrupt:
        return "linkage-corrupt";
      case CallStatus::EngineFault:
        return "engine-fault";
      case CallStatus::NestedFailure:
        return "nested-failure";
      case CallStatus::Overloaded:
        return "overloaded";
      case CallStatus::DeadlineExpired:
        return "deadline-expired";
      case CallStatus::BreakerOpen:
        return "breaker-open";
      case CallStatus::RetryBudgetExhausted:
        return "retry-budget-exhausted";
      case CallStatus::IntegrityViolation:
        return "integrity-violation";
    }
    return "unknown";
}

} // namespace xpc::kernel
