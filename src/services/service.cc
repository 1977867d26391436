#include "service.hh"

#include "hw/core.hh"
#include "services/admission.hh"
#include "services/telemetry.hh"

namespace xpc::services {

void
Service::serve(core::Transport &transport, const core::ServiceDesc &desc,
               core::ServiceHandler handler)
{
    svcId = transport.registerService(
        desc, [this, handler = std::move(handler)](core::ServerApi &api) {
            enter(api, handler);
        });
}

void
Service::enter(core::ServerApi &api, const core::ServiceHandler &handler)
{
    hw::Core &core = api.core();
    ServiceTelemetry *tel = telemetry;
    const uint64_t start = core.now().value();
    if (tel) {
        tel->inflight++;
        if (tel->series)
            tel->series->sample(tel->chInflight, start, tel->inflight);
    }
    bool admitted = true;
    if (admission) {
        // The tier rides the request context across every hop, like
        // the deadline: a nested call inherits the originating
        // caller's criticality without per-transport plumbing.
        kernel::Thread *caller = api.callerThread();
        admitted = admission->admit(
            core.now(), caller ? uint32_t(caller->id()) : 0,
            caller ? uint32_t(caller->tenant) : 0,
            core.requests().currentCriticality(), &core.tracer());
    }
    if (admitted) {
        handler(api);
    } else {
        api.fail(core::TransportStatus::Overloaded);
        api.setReplyLen(0);
    }
    if (!tel)
        return;
    const uint64_t end = core.now().value();
    if (admitted) {
        tel->handled.inc();
        tel->serviceCycles.record(end - start);
    } else {
        tel->shedCount.inc();
    }
    tel->inflight--;
    if (tel->series) {
        tel->series->add(admitted ? tel->chDone : tel->chShed, end);
        tel->series->sample(tel->chInflight, end, tel->inflight);
    }
}

} // namespace xpc::services
