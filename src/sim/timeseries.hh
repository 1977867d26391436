/**
 * @file
 * Windowed time-series over the simulated cycle clock.
 *
 * A TimeSeries buckets events into fixed-width windows of simulated
 * cycles and keeps one value per window per named channel. Counter
 * channels accumulate (offered requests, goodput, sheds); gauge
 * channels keep the last sample of the window and carry it forward
 * across empty windows (in-flight depth, admission backlog, breaker
 * state), so curves render as step functions. This is what makes
 * overload dynamics *visible*: metastable-failure onset shows up as
 * the goodput channel decaying while offered stays flat, and
 * post-crash recovery time is the gap until goodput returns to its
 * pre-kill level.
 *
 * Everything is keyed by caller-supplied simulated timestamps, so
 * recording costs no simulated cycles and two same-seed runs produce
 * byte-identical series. Export targets: a stable JSON document (one
 * array per channel, window order) for the BENCH/loadgen reports,
 * and Perfetto counter tracks (one "C" event per window) so the
 * curves land beside the causal trace in the same UI.
 *
 * Storage is exact at the narrowest width: a channel keeps one byte
 * vector whose windows are 1, 2 or 4-byte unsigned integers while
 * every value it has held is a whole number that fits, and 8-byte
 * doubles from the first value that is a fraction, negative, -0.0,
 * NaN, infinite or at least 2^32. Widening re-encodes the channel
 * once; a channel never narrows again until reset(). Every value
 * read back is therefore bit-identical to what a plain vector of
 * doubles would hold. A gauge copies its last value into each window
 * as the window is created and remembers its first sampled window,
 * so at() is O(1); one bit per window marks the windows sampled
 * themselves, which an out-of-order sample (one before the gauge's
 * last window) needs to re-carry its value up to the next sample.
 * What still grows: every window from the first to the last is kept
 * for the export, so a channel costs one byte (one bit more for a
 * gauge) per window of simulated time while its counts stay below
 * 256 (the loadgen mesh's do at its default 100k-cycle window).
 */

#ifndef XPC_SIM_TIMESERIES_HH
#define XPC_SIM_TIMESERIES_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace xpc::trace {
class Tracer;
}

namespace xpc {

class TimeSeries
{
  public:
    using ChannelId = size_t;

    explicit TimeSeries(Cycles window_cycles);

    uint64_t windowCycles() const { return window; }

    /** Create (or find) an accumulating channel named @p name. */
    ChannelId counterChannel(const std::string &name);
    /** Create (or find) a last-sample-wins channel named @p name. */
    ChannelId gaugeChannel(const std::string &name);

    /** Accumulate @p n into @p ch's window containing cycle @p t. */
    void add(ChannelId ch, uint64_t t, double n = 1);

    /** Record gauge sample @p v at cycle @p t (last in window wins). */
    void sample(ChannelId ch, uint64_t t, double v);

    /** Look up an existing channel by name without creating it.
     *  @return true and set @p out when the channel exists. */
    bool findChannel(const std::string &name, ChannelId &out) const;

    /** Windows materialized so far (max over channels). */
    size_t windowCount() const;

    /**
     * Value of @p ch in window @p w: counters default to 0, gauges
     * carry the last earlier sample forward (NaN before the first).
     */
    double at(ChannelId ch, size_t w) const;

    /** Drop all recorded values; channels and window width stay. */
    void reset();

    /**
     * Stable JSON: {"window_cycles":W,"windows":N,
     * "channels":{"name":[...],...}} with channels in creation order
     * and non-finite values as null.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

    /**
     * Emit one Perfetto counter sample per channel per window at the
     * window-start timestamp onto lane @p tid, each value truncated
     * and clamped into [0, UINT64_MAX]; NaN (an unsampled gauge
     * window, or a NaN sample) exports as 0. No-op while the
     * tracer is disabled. The channel names are handed to the tracer
     * by pointer, so this TimeSeries must outlive the trace export
     * (the same static-lifetime rule every probe site follows).
     */
    void exportCounterTracks(trace::Tracer &tracer,
                             uint32_t tid) const;

  private:
    struct Channel
    {
        std::string name;
        bool isGauge = false;
        /** Bytes per window: 1, 2 or 4 (unsigned integer) or 8
         *  (double). */
        size_t width = 1;
        size_t windows = 0;         ///< held: bytes.size() / width
        std::vector<uint8_t> bytes; ///< windows, `width` bytes each
        size_t firstSampled = SIZE_MAX; ///< gauge: first sampled window
        std::vector<bool> sampled; ///< gauge: window has a sample

        double get(size_t w) const;
        /** Store @p v, widening the channel first if it must. */
        void put(size_t w, double v);
    };

    ChannelId makeChannel(const std::string &name, bool gauge);
    void ensureWindow(Channel &ch, size_t w);

    uint64_t window;
    size_t materialized = 0; ///< windowCount()
    /** deque: stable element addresses for the exported name ptrs. */
    std::deque<Channel> channels;
};

} // namespace xpc

#endif // XPC_SIM_TIMESERIES_HH
