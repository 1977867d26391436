#include "timeseries.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>

#include "json.hh"
#include "logging.hh"
#include "trace.hh"

namespace xpc {

namespace {

constexpr double tsNaN = std::numeric_limits<double>::quiet_NaN();

/** Narrowest width that stores @p v exactly: 1, 2 or 4 bytes for a
 *  whole number below 2^32 (not -0.0), else 8 (a double). */
size_t
widthFor(double v)
{
    // The range test comes first: the cast is defined on [0, 2^32).
    if (!(v >= 0) || std::signbit(v) || v >= 0x1p32 ||
        double(uint32_t(v)) != v)
        return 8;
    return v < 0x1p8 ? 1 : v < 0x1p16 ? 2 : 4;
}

double
decode(const uint8_t *p, size_t width)
{
    switch (width) {
      case 1:
        return p[0];
      case 2: {
        uint16_t u;
        std::memcpy(&u, p, sizeof(u));
        return u;
      }
      case 4: {
        uint32_t u;
        std::memcpy(&u, p, sizeof(u));
        return u;
      }
      default: {
        double d;
        std::memcpy(&d, p, sizeof(d));
        return d;
      }
    }
}

/** Store @p v, which widthFor() says fits @p width, at @p p. */
void
encode(uint8_t *p, size_t width, double v)
{
    switch (width) {
      case 1:
        p[0] = uint8_t(v);
        break;
      case 2: {
        uint16_t u = uint16_t(v);
        std::memcpy(p, &u, sizeof(u));
        break;
      }
      case 4: {
        uint32_t u = uint32_t(v);
        std::memcpy(p, &u, sizeof(u));
        break;
      }
      default:
        std::memcpy(p, &v, sizeof(v));
        break;
    }
}

} // namespace

double
TimeSeries::Channel::get(size_t w) const
{
    return decode(&bytes[w * width], width);
}

void
TimeSeries::Channel::put(size_t w, double v)
{
    size_t need = widthFor(v);
    if (need > width) {
        // Re-encode every window at the new width, once.
        std::vector<uint8_t> wide(windows * need);
        for (size_t i = 0; i < windows; i++)
            encode(&wide[i * need], need, get(i));
        bytes = std::move(wide);
        width = need;
    }
    encode(&bytes[w * width], width, v);
}

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
    size_t n = ch.windows;
    if (w < n)
        return;
    ch.windows = w + 1;
    ch.bytes.resize(ch.windows * ch.width, 0);
    if (ch.isGauge) {
        ch.sampled.resize(w + 1, false);
        // Carry the last value forward into the new windows.
        for (size_t i = n; n > 0 && i <= w; i++)
            encode(&ch.bytes[i * ch.width], ch.width, ch.get(n - 1));
    }
    materialized = std::max(materialized, w + 1);
}

void
TimeSeries::add(ChannelId ch, uint64_t t, double n)
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    Channel &c = channels[ch];
    panic_if(c.isGauge, "add() on gauge channel '%s'", c.name.c_str());
    size_t w = size_t(t / window);
    ensureWindow(c, w);
    c.put(w, c.get(w) + n);
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
    c.put(w, v);
    c.sampled[w] = true;
    c.firstSampled = std::min(c.firstSampled, w);
    // A sample before the gauge's last window carries up to the next
    // sampled window (the last one always is).
    for (size_t i = w + 1; i < c.windows && !c.sampled[i]; i++)
        encode(&c.bytes[i * c.width], c.width, v);
}

size_t
TimeSeries::windowCount() const
{
    return materialized;
}

double
TimeSeries::at(ChannelId ch, size_t w) const
{
    panic_if(ch >= channels.size(), "bad channel id %zu", ch);
    const Channel &c = channels[ch];
    size_t n = c.windows;
    if (!c.isGauge)
        return w < n ? c.get(w) : 0;
    // Gauge: windows hold their carried value; past the last one the
    // last value carries on.
    if (n == 0 || w < c.firstSampled)
        return tsNaN;
    return c.get(std::min(w, n - 1));
}

void
TimeSeries::reset()
{
    for (Channel &c : channels) {
        c.width = 1;
        c.windows = 0;
        c.bytes.clear();
        c.sampled.clear();
        c.firstSampled = SIZE_MAX;
    }
    materialized = 0;
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
        for (size_t w = 0; w < n; w++) {
            if (w > 0)
                os << ",";
            os << json::num(at(ch, w));
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
    for (size_t ch = 0; ch < channels.size(); ch++) {
        for (size_t w = 0; w < n; w++) {
            double v = at(ch, w);
            // NaN and v <= 0 stay 0: casting NaN or a value past
            // UINT64_MAX would be undefined.
            uint64_t u = 0;
            if (v >= 0x1p64)
                u = std::numeric_limits<uint64_t>::max();
            else if (v > 0)
                u = uint64_t(v);
            tracer.counter("load", channels[ch].name.c_str(), u,
                           w * window, tid);
        }
    }
}

} // namespace xpc
