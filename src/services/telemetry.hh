/**
 * @file
 * Server-side tail-latency telemetry: the admit/complete recording
 * hooks the observability layer hangs off every service handler.
 *
 * A ServiceTelemetry bundles what one service instance exports:
 * a fixed-memory Histogram of handler service time (cycles between
 * handler entry and reply), admit/shed counters, and - when a
 * TimeSeries is attached - "done"/"shed" counter channels plus an
 * in-flight gauge, all keyed by the simulated cycle clock. Recording
 * costs no simulated cycles: telemetry observes the run, it never
 * perturbs it, so fig05/fig06 cycle tables stay byte-identical with
 * the layer compiled in.
 *
 * A Service (services/service) opts in with setTelemetry() (null =
 * off, the default - the same pattern as setAdmission), and its door
 * times each invocation and classifies it as handled or shed.
 * Because TenantRig rebuilds service instances on crash restart, the
 * ServiceTelemetry lives with the *stack*, not the instance: a
 * restarted server re-attaches to the same telemetry and the
 * histograms span incarnations.
 */

#ifndef XPC_SERVICES_TELEMETRY_HH
#define XPC_SERVICES_TELEMETRY_HH

#include <cstdint>
#include <string>

#include "sim/histogram.hh"
#include "sim/stats.hh"
#include "sim/timeseries.hh"

namespace xpc::services {

class ServiceTelemetry
{
  public:
    explicit ServiceTelemetry(std::string service_name);

    const std::string &name() const { return serviceName; }

    /**
     * Route windowed per-window curves into @p ts: creates counter
     * channels "<name>.done" / "<name>.shed" and gauge
     * "<name>.inflight". Null detaches.
     */
    void attachSeries(TimeSeries *ts);

    /** Handler service time in cycles, completed invocations only. */
    Histogram serviceCycles;
    /** Invocations that ran to completion. */
    Counter handled;
    /** Invocations refused admission (shed at the handler door). */
    Counter shedCount;

    /** Registry node "<service_name>" holding the stats above. */
    StatGroup stats;

  private:
    friend class Service;

    std::string serviceName;
    TimeSeries *series = nullptr;
    TimeSeries::ChannelId chDone = 0;
    TimeSeries::ChannelId chShed = 0;
    TimeSeries::ChannelId chInflight = 0;
    uint32_t inflight = 0;
};

} // namespace xpc::services

#endif // XPC_SERVICES_TELEMETRY_HH
