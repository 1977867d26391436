/**
 * @file
 * Client-side circuit breaker: the quarantine state machine that
 * stops a client from hammering a stalled or overloaded service.
 *
 * Closed -> (N consecutive failures) -> Open -> (cycle-based
 * cooldown) -> HalfOpen -> one probe call decides: success closes
 * the breaker, failure re-opens it and restarts the cooldown.
 *
 * Everything is driven by the simulated cycle clock, so trip and
 * probe points are an exact function of the call/failure sequence -
 * no wall-clock, no hidden state. services::Supervisor keeps one
 * breaker per supervised service and consults it in callWithRetry;
 * a short-circuited call surfaces as CallStatus::BreakerOpen without
 * touching the transport at all.
 */

#ifndef XPC_CORE_BREAKER_HH
#define XPC_CORE_BREAKER_HH

#include <cstdint>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace xpc::core {

/** Tunables; `enabled` gates the whole machine (default off). */
struct BreakerOptions
{
    bool enabled = false;
    /** Consecutive failures that trip Closed -> Open. */
    uint32_t failureThreshold = 3;
    /** Cycles an Open breaker waits before allowing a probe. */
    Cycles cooldownCycles{50000};
};

class CircuitBreaker
{
  public:
    enum class State : uint8_t { Closed, Open, HalfOpen };

    explicit CircuitBreaker(const BreakerOptions &options = {})
        : opts(options)
    {}

    /** Resolve the state at @p now (Open lapses into HalfOpen once
     *  the cooldown has elapsed). */
    State
    state(Cycles now) const
    {
        if (st == State::Open &&
            now.value() >= openedAt + opts.cooldownCycles.value())
            return State::HalfOpen;
        return st;
    }

    /**
     * Gate one call attempt. Open => false (quarantined: don't even
     * try). HalfOpen => true exactly once per cooldown window - the
     * probe; further attempts stay short-circuited until the probe
     * reports back via onSuccess/onFailure.
     */
    bool
    allow(Cycles now)
    {
        switch (state(now)) {
          case State::Closed:
            return true;
          case State::Open:
            shortCircuits_++;
            return false;
          case State::HalfOpen:
            if (st == State::Open) {
                // Cooldown elapsed: become half-open for real and
                // let this one probe through.
                st = State::HalfOpen;
                probeInFlight = true;
                probes_++;
                return true;
            }
            if (probeInFlight) {
                shortCircuits_++;
                return false;
            }
            probeInFlight = true;
            probes_++;
            return true;
        }
        return true;
    }

    void
    onSuccess(Cycles now)
    {
        (void)now;
        consecutiveFailures = 0;
        if (st == State::HalfOpen) {
            // One successful probe closes the breaker.
            probeInFlight = false;
            st = State::Closed;
        }
    }

    void
    onFailure(Cycles now)
    {
        if (st == State::HalfOpen) {
            // The probe failed: back to quarantine, fresh cooldown.
            probeInFlight = false;
            trip(now);
            return;
        }
        if (st == State::Closed &&
            ++consecutiveFailures >= opts.failureThreshold)
            trip(now);
    }

    /**
     * Restart-time reset: back to Closed with no failure memory. A
     * freshly restarted service must not inherit its predecessor's
     * quarantine - the failures that tripped the breaker died with
     * the old instance. The counters survive; they record history,
     * not state.
     */
    void
    reset()
    {
        st = State::Closed;
        openedAt = 0;
        consecutiveFailures = 0;
        probeInFlight = false;
    }

    uint64_t trips() const { return trips_; }
    uint64_t probes() const { return probes_; }
    uint64_t shortCircuits() const { return shortCircuits_; }

    /** True while a half-open probe is in flight (allow() granted it,
     *  onSuccess/onFailure has not reported back yet). The Supervisor
     *  escalates that one attempt to Criticality::Critical so the
     *  recovery probe is never shed by the overload it is probing. */
    bool probing() const { return probeInFlight; }

    const BreakerOptions &options() const { return opts; }

  private:
    void
    trip(Cycles now)
    {
        st = State::Open;
        openedAt = now.value();
        consecutiveFailures = 0;
        trips_++;
    }

    BreakerOptions opts;
    State st = State::Closed;
    uint64_t openedAt = 0;
    uint32_t consecutiveFailures = 0;
    bool probeInFlight = false;
    uint64_t trips_ = 0;
    uint64_t probes_ = 0;
    uint64_t shortCircuits_ = 0;
};

const char *breakerStateName(CircuitBreaker::State state);

} // namespace xpc::core

#endif // XPC_CORE_BREAKER_HH
