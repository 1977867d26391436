/**
 * @file
 * The name server: how clients acquire x-entry IDs and capabilities
 * at run time (paper 3.1: "The client gets the server's ID as well
 * as the IPC capability, typically from its parent process or a name
 * server", and 6.1's L4-style name-server authentication).
 *
 * Servers register (name -> service) with the name server, handing
 * it the grant capability; clients then resolve names over IPC and
 * the name server grants them the xcall capability before replying
 * with the ID. Resolution is itself an IPC call, so the bootstrap
 * path costs what the paper says it costs.
 *
 * Tenancy: the server keeps one name table per TenantId and resolves
 * a request only against the *caller's* tenant's table (the caller's
 * tenant comes from its kernel thread). Two tenants can bind the
 * same name to different services, and neither can name - let alone
 * get a capability for - the other's. With everything in tenant 0
 * (the default) this degenerates to the old single global namespace.
 */

#ifndef XPC_SERVICES_NAME_SERVER_HH
#define XPC_SERVICES_NAME_SERVER_HH

#include <map>
#include <string>

#include "core/transport.hh"

namespace xpc::services {

/** The name-server service. */
class NameServer
{
  public:
    NameServer(core::Transport &transport,
               kernel::Thread &handler_thread);

    core::ServiceId id() const { return svcId; }

    /** Outcome of a bind() attempt. */
    enum class BindStatus
    {
        Ok,
        /** The name is already bound in this tenant; bind() refuses
         *  to overwrite a live binding (use rebind()). */
        AlreadyBound,
    };

    /**
     * Wiring-time registration: bind @p name to @p svc inside
     * @p tenant's namespace. For XPC transports the registering
     * server must also pass the grant-cap for the backing x-entry to
     * the name server's thread (use publish() below, which does
     * both). Fails with AlreadyBound rather than silently stealing a
     * name another service answers to.
     */
    BindStatus bind(const std::string &name, core::ServiceId svc,
                    kernel::TenantId tenant = kernel::defaultTenant);

    /**
     * Replace a binding (or create it): the supervisor's restart
     * path, where the *same* logical service comes back under a
     * fresh ServiceId and must take its old name over.
     */
    void rebind(const std::string &name, core::ServiceId svc,
                kernel::TenantId tenant = kernel::defaultTenant);

    /**
     * Server-side convenience: bind @p name (in the owner's tenant)
     * and forward the grant-cap to the name server so it can
     * authorize clients.
     */
    void publish(const std::string &name, core::ServiceId svc,
                 kernel::Thread &owner);

    /// @name Typed results of resolve() / the wire protocol.
    /// All strictly negative so any valid ServiceId is distinct.
    /// @{
    /** The name is not bound in the caller's tenant. */
    static constexpr int64_t resolveMiss = -1;
    /** Malformed request: empty name, or no NUL terminator within
     *  requestLen() (includes oversized names). */
    static constexpr int64_t resolveBadName = -2;
    /** The resolution IPC itself failed, or the reply was shorter
     *  than the 8-byte result (client-side classification). */
    static constexpr int64_t resolveFailed = -3;
    /// @}

    /**
     * Client-side resolution over IPC: returns the ServiceId and, on
     * capability transports, leaves the client authorized to call it.
     * Looks up the *client's* tenant's namespace only.
     * @return the service id, or one of the negative typed results.
     */
    static int64_t resolve(core::Transport &tr, hw::Core &core,
                           kernel::Thread &client, core::ServiceId ns,
                           const std::string &name);

    Counter lookups;
    Counter misses;
    /** Requests rejected by the name-parsing hardening. */
    Counter badNames;
    /**
     * Resolutions that would have granted across a tenant boundary.
     * Structurally impossible (lookups never leave the caller's
     * table); the containment suite asserts it stays zero.
     */
    Counter crossTenantResolves;

  private:
    core::Transport &transport;
    core::ServiceId svcId = 0;
    /** One namespace per tenant. */
    std::map<kernel::TenantId,
             std::map<std::string, core::ServiceId>> spaces;

    void handle(core::ServerApi &api);
};

} // namespace xpc::services

#endif // XPC_SERVICES_NAME_SERVER_HH
