/**
 * @file
 * The one door of a guarded service. A server that a rig may put
 * behind an admission controller (services/admission) or hang a
 * telemetry block on (services/telemetry) derives from Service and
 * registers its handler with serve(). Every invocation then passes
 * the door in one order: the telemetry probe opens (in-flight gauge,
 * start cycle), admission decides, the handler runs only if the
 * request was admitted, and the probe records the service time or
 * the shed. A shed request fails with CallStatus::Overloaded and an
 * empty reply, never reaching the handler.
 *
 * Both attachments are null by default, and the door spends no
 * simulated cycle either way: an idle controller and an attached
 * telemetry block leave every cycle and every system stat as they
 * are (Door.IdleDoorChangesNothing in tests/test_overload.cc).
 */

#ifndef XPC_SERVICES_SERVICE_HH
#define XPC_SERVICES_SERVICE_HH

#include "core/transport.hh"

namespace xpc::services {

class AdmissionController;
class ServiceTelemetry;

/** Base of every service that admission or telemetry can guard. */
class Service
{
  public:
    /** The transport's id for the registered handler. */
    core::ServiceId id() const { return svcId; }

    /** Attach admission control (null = off, the default). */
    void setAdmission(AdmissionController *adm) { admission = adm; }

    /** Attach telemetry (null = off, the default). */
    void setTelemetry(ServiceTelemetry *t) { telemetry = t; }

    /** The registered handler holds this object's address. */
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

  protected:
    Service() = default;
    ~Service() = default;

    /** Register @p handler on @p transport behind the door. */
    void serve(core::Transport &transport, const core::ServiceDesc &desc,
               core::ServiceHandler handler);

  private:
    core::ServiceId svcId = 0;
    AdmissionController *admission = nullptr;
    ServiceTelemetry *telemetry = nullptr;

    /** One invocation through the door. */
    void enter(core::ServerApi &api, const core::ServiceHandler &handler);
};

} // namespace xpc::services

#endif // XPC_SERVICES_SERVICE_HH
