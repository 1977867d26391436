/**
 * @file
 * The one JSON renderer for numbers and strings.
 *
 * Every document the simulator writes (stat dumps, histogram and
 * time-series summaries, regime trackers, loadgen results, traces,
 * explorer and injector reports, bench reports) renders its doubles
 * and strings through these two functions, so one rule decides the
 * bytes that the baseline gate and the same-seed replays compare.
 */

#ifndef XPC_SIM_JSON_HH
#define XPC_SIM_JSON_HH

#include <string>

namespace xpc::json {

/**
 * @p v as a JSON number: an integral value below 1e15 in magnitude
 * exactly, any other finite value to six significant digits, and NaN
 * or an infinity (which JSON cannot represent) as null.
 */
std::string num(double v);

/**
 * @p s as a quoted JSON string: quote and backslash escaped, \n, \t
 * and \r as such, every other control byte as \u00XX.
 */
std::string str(const std::string &s);

} // namespace xpc::json

#endif // XPC_SIM_JSON_HH
