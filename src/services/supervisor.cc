#include "supervisor.hh"

#include <algorithm>

#include "services/admission.hh"
#include "sim/logging.hh"
#include "sim/request.hh"
#include "sim/trace.hh"

namespace xpc::services {

namespace {

/** Backoff before retry k is backoffBase << (k - 1), capped at
 *  backoffCap, then half of it jittered from the seeded PRNG. */
constexpr Cycles backoffBase{2000};
constexpr Cycles backoffCap{64000};

} // namespace

void
Supervisor::mark(const char *what, const Key &key)
{
    // Tenant-qualified only in multi-tenant rigs: a single-tenant
    // trace names the service alone.
    std::string label = key.second;
    if (key.first != kernel::defaultTenant)
        label += "@t" + std::to_string(key.first);
    transport.kernelRef().machine().tracer().instantNow("supervisor", what,
                                                        0, label);
}

void
Supervisor::supervise(const std::string &name, kernel::Thread &server,
                      core::ServiceId svc, RestartFn restart)
{
    panic_if(!restart, "supervised service needs a restart function");
    Entry &entry = entries[{server.tenant, name}];
    entry.server = &server;
    entry.svc = svc;
    entry.restart = std::move(restart);
}

void
Supervisor::setRecovery(const std::string &name,
                        std::function<void()> recover,
                        kernel::TenantId tenant)
{
    auto it = entries.find({tenant, name});
    panic_if(it == entries.end() || !it->second.restart,
             "setRecovery on an unsupervised service '%s'",
             name.c_str());
    it->second.recover = std::move(recover);
}

void
Supervisor::setAdmission(const std::string &name,
                         AdmissionController *admission,
                         kernel::TenantId tenant)
{
    auto it = entries.find({tenant, name});
    panic_if(it == entries.end() || !it->second.restart,
             "setAdmission on an unsupervised service '%s'",
             name.c_str());
    it->second.admission = admission;
}

bool
Supervisor::isDown(const std::string &name,
                   kernel::TenantId tenant) const
{
    auto it = entries.find({tenant, name});
    if (it == entries.end() || !it->second.restart)
        return false;
    const kernel::Thread *srv = it->second.server;
    return !srv || !srv->process() || srv->process()->dead;
}

bool
Supervisor::healEntry(const Key &key, Entry &entry,
                      bool clear_integrity)
{
    kernel::Thread *srv = entry.server;
    if (srv && srv->process() && !srv->process()->dead) {
        // The server is alive, but repeated integrity violations may
        // have tripped its breaker into quarantine. The operator
        // sweep is the reset for that too: clear the offense record
        // and the breaker so the next call probes the service again.
        if (!clear_integrity || entry.integrityOffenses == 0)
            return false;
        entry.integrityOffenses = 0;
        if (entry.breaker)
            entry.breaker->reset();
        mark("integrity_quarantine_cleared", key);
        if (onLifecycle)
            onLifecycle("integrity_clear", key.second, key.first);
        return true;
    }
    entry.svc = entry.restart(entry.server);
    if (entry.recover) {
        // Stateful recovery (journal replay) runs before the
        // re-bind: no client can reach the fresh instance until
        // its durable state is consistent again.
        entry.recover();
        recoveries.inc();
        mark("recover", key);
        if (onLifecycle)
            onLifecycle("recover", key.second, key.first);
    }
    // rebind, not bind: the restarted instance deliberately takes
    // its old name over from the dead one.
    nameServer.rebind(key.second, entry.svc, key.first);
    // The failures that tripped the breaker - and the backlog
    // that tripped admission control - died with the old
    // instance. A restarted service starts with a clean slate;
    // stale quarantine would shed the first calls to it.
    if (entry.breaker)
        entry.breaker->reset();
    if (entry.budget)
        entry.budget->reset();
    entry.integrityOffenses = 0;
    if (entry.admission)
        entry.admission->reset();
    restarts.inc();
    mark("restart", key);
    if (onLifecycle)
        onLifecycle("restart", key.second, key.first);
    return true;
}

uint64_t
Supervisor::heal()
{
    uint64_t healed = 0;
    for (auto &[key, entry] : entries)
        if (entry.restart)
            healed += healEntry(key, entry, /*clear_integrity=*/true);
    return healed;
}

uint64_t
Supervisor::heal(kernel::TenantId tenant)
{
    uint64_t healed = 0;
    auto it = entries.lower_bound({tenant, std::string()});
    for (; it != entries.end() && it->first.first == tenant; ++it)
        if (it->second.restart)
            healed += healEntry(it->first, it->second,
                                /*clear_integrity=*/false);
    return healed;
}

core::ServiceId
Supervisor::currentId(const std::string &name,
                      kernel::TenantId tenant) const
{
    auto it = entries.find({tenant, name});
    if (it != entries.end() && it->second.restart)
        return it->second.svc;
    return transport.lookup(name, tenant);
}

uint64_t
Supervisor::integrityOffenseCount(const std::string &name,
                                  kernel::TenantId tenant) const
{
    auto it = entries.find({tenant, name});
    return it == entries.end() ? 0 : it->second.integrityOffenses;
}

core::CircuitBreaker &
Supervisor::breakerFor(const std::string &name,
                       kernel::TenantId tenant)
{
    Entry &entry = entries[{tenant, name}];
    if (!entry.breaker)
        entry.breaker.emplace(breakerOpts);
    return *entry.breaker;
}

RetryBudget &
Supervisor::budgetFor(const std::string &name, kernel::TenantId tenant)
{
    Entry &entry = entries[{tenant, name}];
    if (!entry.budget)
        entry.budget.emplace(retryBudgetOpts);
    return *entry.budget;
}

int64_t
Supervisor::callWithRetry(hw::Core &core, kernel::Thread &client,
                          const std::string &name, uint64_t opcode,
                          const void *req, uint64_t req_len,
                          void *reply, uint64_t reply_cap,
                          const RetryPolicy &policy)
{
    // Blast-radius containment: everything below - the name lookup,
    // the breaker, the heal on failure - is scoped to the *caller's*
    // tenant. A client retrying into its crashed tenant never
    // restarts, re-binds or resets anything owned by another.
    const kernel::TenantId tenant = client.tenant;
    uint64_t area = std::max(req_len, reply_cap);
    // Mint a deadline for the whole retried operation; the transports
    // inherit (and enforce) it on every hop, and nested scopes can
    // only tighten it.
    req::DeadlineScope dscope(
        core.requests(),
        policy.deadlineCycles.value() != 0
            ? (core.now() + policy.deadlineCycles).value()
            : 0);
    const uint64_t deadline = core.requests().currentDeadline();
    core::CircuitBreaker *brk =
        breakerOpts.enabled ? &breakerFor(name, tenant) : nullptr;
    RetryBudget *budget =
        retryBudgetOpts.enabled ? &budgetFor(name, tenant) : nullptr;
    auto noteFailure = [&] {
        if (!brk)
            return;
        uint64_t before = brk->trips();
        brk->onFailure(core.now());
        if (brk->trips() != before) {
            breakerTrips.inc();
            mark("breaker_trip", {tenant, name});
        }
    };
    for (uint32_t attempt = 0; attempt < policy.maxAttempts;
         attempt++) {
        if (attempt > 0) {
            if (budget && !budget->tryAcquire()) {
                // The bucket is dry: this service has not succeeded
                // enough lately to pay for another retry. Fail fast
                // *before* spending any backoff - burning cycles on
                // doomed re-attempts is exactly the amplification a
                // retry budget exists to stop.
                lastStatus =
                    core::TransportStatus::RetryBudgetExhausted;
                retryBudgetExhausted.inc();
                mark("retry_budget_exhausted", {tenant, name});
                break;
            }
            retries.inc();
            // Capped exponential backoff, charged as idle time.
            uint64_t delay = std::min(backoffBase.value() << (attempt - 1),
                                      backoffCap.value());
            // Decorrelate retries: half the delay is fixed, half is
            // drawn from the seeded PRNG, so replays with the same
            // seed back off identically.
            delay = delay / 2 + rng.nextBounded(delay / 2 + 1);
            if (deadline != 0) {
                uint64_t now = core.now().value();
                if (now >= deadline)
                    break;
                // Never sleep past the deadline.
                delay = std::min(delay, deadline - now);
            }
            core.spend(Cycles(delay));
        }
        if (deadline != 0 && core.now().value() >= deadline) {
            // Out of budget before this attempt could even start.
            lastStatus = core::TransportStatus::DeadlineExpired;
            deadlineGiveUps.inc();
            mark("deadline_give_up", {tenant, name});
            break;
        }
        if (brk && !brk->allow(core.now())) {
            // Quarantined: don't touch the transport at all. The
            // backoff above keeps advancing the clock toward the
            // cooldown, so a later attempt may become the probe.
            lastStatus = core::TransportStatus::BreakerOpen;
            breakerRejected.inc();
            continue;
        }
        // A half-open breaker probe is the mesh's recovery signal:
        // escalate it to Critical for this one attempt so no
        // admission controller's brownout sheds the very call that
        // would close the breaker. Non-probe attempts keep the
        // caller's own tier.
        std::optional<req::CriticalityScope> probeTier;
        if (brk && brk->probing())
            probeTier.emplace(core.requests(), req::Criticality::Critical);
        if (autoHeal)
            heal(tenant);
        core::ServiceId svc = currentId(name, tenant);
        // Re-authorize every attempt: a restarted service means the
        // old capability grant died with the old instance.
        transport.connect(client, svc);
        transport.requestArea(core, client, area);
        if (req_len > 0 &&
            !transport.clientWrite(core, client, 0, req, req_len)) {
            // The staging copy faulted: calling now would send stale
            // bytes as a valid-looking request. Retry instead.
            lastStatus = core::TransportStatus::CopyFault;
            noteFailure();
            continue;
        }
        core::CallResult r = transport.call(core, client, svc, opcode,
                                            req_len, area);
        lastStatus = r.status;
        if (!r.ok) {
            if (r.status == core::TransportStatus::IntegrityViolation) {
                // Detected corruption: record the offense against
                // this (tenant, service). The noteFailure below feeds
                // the breaker, so a repeat offender trips into
                // quarantine; heal() clears the record.
                integrityViolations.inc();
                entries[{tenant, name}].integrityOffenses++;
                mark("integrity_violation", {tenant, name});
            }
            noteFailure();
            continue;
        }
        uint64_t rlen = std::min<uint64_t>(r.replyLen, reply_cap);
        if (rlen > 0 &&
            !transport.clientRead(core, client, 0, reply, rlen)) {
            // The reply came back but its copy-out faulted. The op
            // already applied server-side, so supervised calls must
            // be idempotent (retry re-applies them).
            lastStatus = core::TransportStatus::CopyFault;
            noteFailure();
            continue;
        }
        if (brk)
            brk->onSuccess(core.now());
        if (budget)
            budget->onSuccess();
        return int64_t(rlen);
    }
    return -1;
}

} // namespace xpc::services
