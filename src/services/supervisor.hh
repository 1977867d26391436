/**
 * @file
 * Crash recovery above the transport: a supervisor that notices dead
 * server processes, restarts them and re-registers the fresh instance
 * with the name server, plus a client-side call helper that retries
 * failed calls with capped, jittered exponential backoff. The helper
 * is deadline-aware (it never retries past the call's cycle budget)
 * and consults one circuit breaker per supervised service, so a
 * stalled or overloaded server is quarantined instead of hammered.
 *
 * Together with the error statuses the kernels and the XPC runtime
 * now propagate (TransportStatus), this closes the recovery loop the
 * paper's section 4.2 sketches for application termination: a server
 * dying mid-xcall surfaces as ServiceDead at the client, the
 * supervisor resurrects the service, and the retried call lands on
 * the new instance.
 */

#ifndef XPC_SERVICES_SUPERVISOR_HH
#define XPC_SERVICES_SUPERVISOR_HH

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/breaker.hh"
#include "services/name_server.hh"
#include "services/retry_budget.hh"
#include "sim/random.hh"

namespace xpc::services {

class AdmissionController;

/**
 * Client retry policy: capped exponential backoff.
 *
 * The retry-attempt ladder, from least to most aggressive - pick the
 * rung that matches the caller's loop model:
 *   1 attempt   open-loop generators (apps/loadgen default): retries
 *               multiply offered load under overload, so an open-loop
 *               client takes the typed failure and moves on;
 *   3 attempts  crash experiments that only need the supervisor's
 *               heal-on-retry to fire once (bench_metastable);
 *   5 attempts  this struct's default: general closed-loop callers;
 *   8 attempts  the chaos suites' TenantRig default
 *               (TenantRigOptions::maxAttempts): closed-loop clients
 *               that must ride out a full kill/restart cycle.
 * Anything above 1 attempt should run with a Supervisor retry budget
 * (Supervisor::retryBudgetOpts) in overload-prone rigs: the budget,
 * not the ladder, is what keeps a retry storm bounded.
 */
struct RetryPolicy
{
    uint32_t maxAttempts = 5;
    /**
     * Cycle budget for the whole retried operation, 0 = none. Minted
     * as a deadline scope around every attempt, so the transports see
     * (and enforce) it on every hop, and no retry ever starts past
     * it.
     */
    Cycles deadlineCycles{0};
};

/** Restarts dead services and re-registers them by name. */
class Supervisor
{
  public:
    /**
     * Rebuild a dead service: spawn a fresh process and thread,
     * register the service on the transport, update @p server to the
     * new handler thread and return the new ServiceId.
     */
    using RestartFn = std::function<core::ServiceId(kernel::Thread *&server)>;

    Supervisor(core::Transport &transport, NameServer &ns)
        : transport(transport), nameServer(ns)
    {
        stats.addCounter("restarts", &restarts);
        stats.addCounter("recoveries", &recoveries);
        stats.addCounter("retries", &retries);
        stats.addCounter("breaker_rejected", &breakerRejected);
        stats.addCounter("breaker_trips", &breakerTrips);
        stats.addCounter("deadline_give_ups", &deadlineGiveUps);
        stats.addCounter("retry_budget_exhausted",
                         &retryBudgetExhausted);
        stats.addCounter("integrity_violations",
                         &integrityViolations);
    }

    /**
     * Put service @p name under supervision. The supervision group
     * it joins is the *server thread's* tenant: heal(tenant) only
     * ever touches that tenant's entries, and two tenants may
     * supervise the same name independently.
     */
    void supervise(const std::string &name, kernel::Thread &server,
                   core::ServiceId svc, RestartFn restart);

    /**
     * Install a stateful-recovery hook for @p name: heal() runs it
     * after the restart function but *before* re-registering the
     * fresh instance with the name server, so a journaled service
     * (fs, minidb) replays its journal while no client can reach it
     * yet. The hook sees the new ServiceId via currentId().
     */
    void setRecovery(const std::string &name,
                     std::function<void()> recover,
                     kernel::TenantId tenant = kernel::defaultTenant);

    /**
     * Attach the admission controller guarding @p name's server, so
     * heal() can drop its modelled backlog along with the breaker
     * state: the queue a dead server was drowning under died with it.
     */
    void setAdmission(const std::string &name,
                      AdmissionController *admission,
                      kernel::TenantId tenant = kernel::defaultTenant);

    /** True when the named service's server process is dead. */
    bool isDown(const std::string &name,
                kernel::TenantId tenant = kernel::defaultTenant) const;

    /**
     * Sweep every supervised service (all tenants); restart and
     * re-register the dead ones, and lift integrity quarantine from
     * live servers whose breaker was tripped by repeated
     * IntegrityViolations (the operator-level reset - the auto-heal
     * inside callWithRetry never clears it). @return how many
     * entries were healed (restarted or un-quarantined).
     */
    uint64_t heal();

    /**
     * Per-tenant sweep: restart, recover and re-bind only @p
     * tenant's dead services, resetting only its breakers and
     * admission buckets. The blast radius of one tenant's crash-loop
     * stops here: healing it never touches another tenant's state.
     */
    uint64_t heal(kernel::TenantId tenant);

    /** The ServiceId currently serving @p name (tracks restarts). */
    core::ServiceId
    currentId(const std::string &name,
              kernel::TenantId tenant = kernel::defaultTenant) const;

    /**
     * Supervised client call: stage @p req, call @p name, consume the
     * reply into @p reply. On failure, heal dead services, back off
     * (charged to @p core, capped exponential) and retry. The name is
     * looked up in - and failures heal only - the *client's* tenant's
     * supervision group.
     * @return the reply length, or -1 once attempts are exhausted
     *         (lastStatus then says why the final attempt failed).
     */
    int64_t callWithRetry(hw::Core &core, kernel::Thread &client,
                          const std::string &name, uint64_t opcode,
                          const void *req, uint64_t req_len,
                          void *reply, uint64_t reply_cap,
                          const RetryPolicy &policy = {});

    /** Status of the most recent callWithRetry attempt. */
    core::TransportStatus lastStatus = core::TransportStatus::Ok;

    /**
     * When false, callWithRetry stops healing dead services before
     * each attempt: calls to a crashed service keep failing with
     * ServiceDead until someone invokes heal() explicitly. The
     * crash-mid-surge experiment flips this off to measure what
     * recovery time looks like *without* supervision.
     */
    bool autoHeal = true;

    /**
     * Lifecycle observer for the SLO health layer: invoked once per
     * healed service with event "recover" (stateful recovery hook
     * ran) and then "restart" (fresh instance re-bound). Observers
     * annotate regime timelines; they must not call back into the
     * supervisor.
     */
    std::function<void(const char *event, const std::string &name,
                       kernel::TenantId tenant)>
        onLifecycle;

    /**
     * Breaker tunables for every supervised service; set before the
     * first callWithRetry (breakers are created lazily per name).
     * Default-off: callWithRetry then never consults a breaker.
     */
    core::BreakerOptions breakerOpts;

    /** The named service's breaker (created on first use), one per
     *  (tenant, name): tripping tenant A's "kv" never quarantines
     *  tenant B's. */
    core::CircuitBreaker &
    breakerFor(const std::string &name,
               kernel::TenantId tenant = kernel::defaultTenant);

    /**
     * Retry-budget tunables for every supervised service; set before
     * the first callWithRetry (budgets are created lazily per
     * (tenant, name), exactly like breakers). Default-off:
     * callWithRetry then never consults a budget.
     */
    RetryBudgetOptions retryBudgetOpts;

    /** The named service's retry budget (created on first use), one
     *  per (tenant, name): tenant A draining its "kv" budget never
     *  throttles tenant B's retries. */
    RetryBudget &
    budgetFor(const std::string &name,
              kernel::TenantId tenant = kernel::defaultTenant);

    /** Integrity violations recorded against (tenant, name) since
     *  the last heal()/restart cleared its offense record. */
    uint64_t integrityOffenseCount(
        const std::string &name,
        kernel::TenantId tenant = kernel::defaultTenant) const;

    Counter restarts;
    /** Stateful recoveries run by heal() (setRecovery hooks). */
    Counter recoveries;
    Counter retries;
    Counter breakerRejected;
    Counter breakerTrips;
    Counter deadlineGiveUps;
    /** Retries refused because the (tenant, service) budget was dry. */
    Counter retryBudgetExhausted;
    /** Calls that came back IntegrityViolation (detected corruption).
     *  Each one also counts as a breaker failure, so a repeat
     *  offender lands in quarantine like a crashing service would. */
    Counter integrityViolations;

    /** Registry node; benches attach it next to the system's. */
    StatGroup stats{"supervisor"};

  private:
    /** Everything kept for one (tenant, name). Without a restart
     *  function it is a name reached without supervision: heal()
     *  skips it, it is never down, and its id is the transport's. */
    struct Entry
    {
        kernel::Thread *server = nullptr;
        core::ServiceId svc = 0;
        RestartFn restart;
        /** Journal replay etc., run between restart and re-bind. */
        std::function<void()> recover;
        AdmissionController *admission = nullptr;
        /** Made at first use from the options of that moment. */
        std::optional<core::CircuitBreaker> breaker;
        std::optional<RetryBudget> budget;
        /** Integrity violations since the last heal()/restart: the
         *  offense record behind integrity quarantine. */
        uint64_t integrityOffenses = 0;
    };

    /** Supervision key: (tenant, name). Ordered by tenant first, so
     *  a per-tenant heal() walks a contiguous range, and by name
     *  within a tenant - the same deterministic iteration order the
     *  single-tenant chaos suite always had. */
    using Key = std::pair<kernel::TenantId, std::string>;

    core::Transport &transport;
    NameServer &nameServer;
    std::map<Key, Entry> entries;
    Rng rng{0xb4c0ffULL};

    /**
     * Heal one entry if its server process is dead. With
     * @p clear_integrity (the operator-level heal() sweep), also
     * lift integrity quarantine from live servers. The per-tenant
     * auto-heal inside callWithRetry never passes it: an integrity
     * offender must stay quarantined across retries until an
     * explicit heal(), or the breaker would re-open for free.
     */
    bool healEntry(const Key &key, Entry &entry, bool clear_integrity);

    /** Mark @p what for @p key on the machine's tracer. */
    void mark(const char *what, const Key &key);
};

} // namespace xpc::services

#endif // XPC_SERVICES_SUPERVISOR_HH
