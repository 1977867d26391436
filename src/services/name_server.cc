#include "name_server.hh"

#include <cstring>
#include <vector>

#include "services/proto.hh"
#include "sim/logging.hh"

namespace xpc::services {

using namespace proto;

NameServer::NameServer(core::Transport &tr,
                       kernel::Thread &handler_thread)
    : transport(tr)
{
    core::ServiceDesc desc;
    desc.name = "nameserver";
    desc.handlerThread = &handler_thread;
    desc.maxMsgBytes = 4096;
    // The name server is the tenant boundary itself: every tenant
    // must be able to reach it even under tenancy enforcement.
    desc.sharedAcrossTenants = true;
    svcId = transport.registerService(
        desc, [this](core::ServerApi &api) { handle(api); });
}

NameServer::BindStatus
NameServer::bind(const std::string &name, core::ServiceId svc,
                 kernel::TenantId tenant)
{
    panic_if(name.empty() || name.size() > fsMaxPath,
             "bad service name");
    auto &space = spaces[tenant];
    if (space.count(name))
        return BindStatus::AlreadyBound;
    space[name] = svc;
    return BindStatus::Ok;
}

void
NameServer::rebind(const std::string &name, core::ServiceId svc,
                   kernel::TenantId tenant)
{
    panic_if(name.empty() || name.size() > fsMaxPath,
             "bad service name");
    spaces[tenant][name] = svc;
}

void
NameServer::publish(const std::string &name, core::ServiceId svc,
                    kernel::Thread &owner)
{
    BindStatus st = bind(name, svc, owner.tenant);
    panic_if(st != BindStatus::Ok,
             "publish: '%s' is already bound in tenant %u",
             name.c_str(), unsigned(owner.tenant));
    // Give the name server the right to authorize clients: the
    // owner (who holds the grant-cap) lets it act on its behalf.
    // connect() below is where the actual grant happens per client.
}

void
NameServer::handle(core::ServerApi &api)
{
    lookups.inc();
    kernel::Thread *caller = api.callerThread();
    kernel::TenantId tenant =
        caller ? caller->tenant : kernel::defaultTenant;

    // Request: a NUL-terminated service name. Probe one byte past
    // fsMaxPath so an over-long name cannot masquerade (by
    // truncation) as a valid one; a request whose payload has no NUL
    // within requestLen() is rejected, not truncated.
    char raw[fsMaxPath + 2] = {};
    uint64_t probe =
        std::min<uint64_t>(fsMaxPath + 1, api.requestLen());
    if (probe > 0)
        api.readRequest(0, raw, probe);

    int64_t result = resolveBadName;
    if (probe == 0 || !memchr(raw, 0, probe) || raw[0] == 0) {
        badNames.inc();
    } else {
        std::string name(raw);
        bool hit = false;
        core::ServiceId svc = 0;
        auto space = spaces.find(tenant);
        if (space != spaces.end()) {
            auto it = space->second.find(name);
            if (it != space->second.end()) {
                svc = it->second;
                hit = true;
            }
        }
        if (!hit) {
            misses.inc();
            result = resolveMiss;
        } else {
            result = int64_t(svc);
            if (transport.tenantOf(svc) != tenant)
                crossTenantResolves.inc();
            // Authorize the caller: on capability transports this
            // sets the client's xcall-cap bit (set_xcap, paper
            // Figure 4); on Zircon it would hand over a channel
            // handle.
            if (caller)
                transport.connect(*caller, svc);
        }
    }
    api.writeReply(0, &result, sizeof(result));
    api.setReplyLen(sizeof(result));
}

int64_t
NameServer::resolve(core::Transport &tr, hw::Core &core,
                    kernel::Thread &client, core::ServiceId ns,
                    const std::string &name)
{
    tr.requestArea(core, client, 4096);
    std::string keyed = name + std::string(1, '\0');
    tr.clientWrite(core, client, 0, keyed.data(), keyed.size());
    auto r = tr.call(core, client, ns, 0, keyed.size(), 4096);
    if (!r.ok)
        return resolveFailed;
    if (r.replyLen < sizeof(int64_t))
        return resolveFailed;
    int64_t result = resolveMiss;
    tr.clientRead(core, client, 0, &result, sizeof(result));
    return result;
}

} // namespace xpc::services
