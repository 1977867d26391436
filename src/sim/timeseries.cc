#include "timeseries.hh"

#include <limits>
#include <ostream>

#include "json.hh"
#include "logging.hh"
#include "trace.hh"

namespace xpc {

namespace {

constexpr double tsNaN = std::numeric_limits<double>::quiet_NaN();

} // namespace

TimeSeries::TimeSeries(Cycles window_cycles)
    : window(window_cycles.value())
{
    panic_if(window == 0, "time-series window must be non-zero");
}

TimeSeries::ChannelId
TimeSeries::makeChannel(const std::string &name, bool gauge)
{
    for (size_t i = 0; i < channels.size(); i++) {
        if (channels[i].name == name) {
            panic_if(channels[i].isGauge != gauge,
                     "channel '%s' redefined with a different kind",
                     name.c_str());
            return i;
        }
    }
    Channel ch;
    ch.name = name;
    ch.isGauge = gauge;
    channels.push_back(std::move(ch));
    return channels.size() - 1;
}

bool
TimeSeries::findChannel(const std::string &name, ChannelId &out) const
{
    for (size_t i = 0; i < channels.size(); i++) {
        if (channels[i].name == name) {
            out = i;
            return true;
        }
    }
    return false;
}

TimeSeries::ChannelId
TimeSeries::counterChannel(const std::string &name)
{
    return makeChannel(name, false);
}

TimeSeries::ChannelId
TimeSeries::gaugeChannel(const std::string &name)
{
    return makeChannel(name, true);
}

void
TimeSeries::ensureWindow(Channel &ch, size_t w)
{
    if (ch.vals.size() <= w) {
        ch.vals.resize(w + 1, 0);
        if (ch.isGauge)
            ch.seen.resize(w + 1, 0);
    }
}

void
TimeSeries::add(ChannelId ch, uint64_t t, double n)
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    Channel &c = channels[ch];
    panic_if(c.isGauge, "add() on gauge channel '%s'", c.name.c_str());
    size_t w = size_t(t / window);
    ensureWindow(c, w);
    c.vals[w] += n;
}

void
TimeSeries::sample(ChannelId ch, uint64_t t, double v)
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    Channel &c = channels[ch];
    panic_if(!c.isGauge, "sample() on counter channel '%s'",
             c.name.c_str());
    size_t w = size_t(t / window);
    ensureWindow(c, w);
    c.vals[w] = v;
    c.seen[w] = 1;
}

size_t
TimeSeries::windowCount() const
{
    size_t n = 0;
    for (const Channel &c : channels)
        n = std::max(n, c.vals.size());
    return n;
}

double
TimeSeries::at(ChannelId ch, size_t w) const
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    const Channel &c = channels[ch];
    if (!c.isGauge)
        return w < c.vals.size() ? c.vals[w] : 0;
    // Gauge: last sample at or before window w carries forward.
    size_t lim = std::min(w + 1, c.vals.size());
    for (size_t i = lim; i-- > 0;)
        if (c.seen[i])
            return c.vals[i];
    return tsNaN;
}

void
TimeSeries::reset()
{
    for (Channel &c : channels) {
        c.vals.clear();
        c.seen.clear();
    }
}

void
TimeSeries::dumpJson(std::ostream &os, int indent) const
{
    size_t n = windowCount();
    const std::string pad(size_t(indent), ' ');
    os << pad << "{\"window_cycles\":" << window << ",\"windows\":" << n
       << ",\n"
       << pad << " \"channels\":{";
    bool first_ch = true;
    for (size_t ch = 0; ch < channels.size(); ch++) {
        if (!first_ch)
            os << ",";
        first_ch = false;
        os << "\n" << pad << "  " << json::str(channels[ch].name) << ":[";
        double carry = tsNaN; // gauges fill forward inline
        for (size_t w = 0; w < n; w++) {
            if (w > 0)
                os << ",";
            double v;
            if (channels[ch].isGauge) {
                if (w < channels[ch].vals.size() &&
                    channels[ch].seen[w])
                    carry = channels[ch].vals[w];
                v = carry;
            } else {
                v = w < channels[ch].vals.size()
                        ? channels[ch].vals[w]
                        : 0;
            }
            os << json::num(v);
        }
        os << "]";
    }
    if (!channels.empty())
        os << "\n" << pad << " ";
    os << "}}";
}

void
TimeSeries::exportCounterTracks(trace::Tracer &tracer,
                                uint32_t tid) const
{
    if (!tracer.enabled())
        return;
    size_t n = windowCount();
    for (const Channel &c : channels) {
        double carry = 0;
        for (size_t w = 0; w < n; w++) {
            double v;
            if (c.isGauge) {
                if (w < c.vals.size() && c.seen[w])
                    carry = c.vals[w];
                v = carry;
            } else {
                v = w < c.vals.size() ? c.vals[w] : 0;
            }
            tracer.counter("load", c.name.c_str(),
                           uint64_t(v < 0 ? 0 : v), w * window, tid);
        }
    }
}

} // namespace xpc
