#include "telemetry.hh"

namespace xpc::services {

ServiceTelemetry::ServiceTelemetry(std::string service_name)
    : stats(service_name), serviceName(std::move(service_name))
{
    stats.addHistogram("service_cycles", &serviceCycles);
    stats.addCounter("handled", &handled);
    stats.addCounter("shed", &shedCount);
}

void
ServiceTelemetry::attachSeries(TimeSeries *ts)
{
    series = ts;
    if (!series)
        return;
    chDone = series->counterChannel(serviceName + ".done");
    chShed = series->counterChannel(serviceName + ".shed");
    chInflight = series->gaugeChannel(serviceName + ".inflight");
}

} // namespace xpc::services
