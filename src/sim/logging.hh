/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic()  - a simulator invariant is broken (our bug); aborts.
 * fatal()  - the user asked for something impossible; exits cleanly.
 * warn()   - something is approximated but probably fine.
 * inform() - plain status output.
 */

#ifndef XPC_SIM_LOGGING_HH
#define XPC_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace xpc {

/** Severity attached to each log record. */
enum class LogLevel { Panic, Fatal, Warn, Inform };

/** @return a printable name for @p level. */
const char *logLevelName(LogLevel level);

namespace trace {
class Tracer;
}

/**
 * Pluggable destination for log records. Every record flows through
 * the installed sink: the default writes to stdio exactly as before,
 * tests install a capturing sink, and the log tracer (when enabled)
 * additionally interleaves each record into the event stream as a
 * trace instant. panic/fatal still terminate after the sink runs.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/** Install @p sink as the log destination; empty restores stdio. */
void setLogSink(LogSink sink);

/**
 * Log records also go to the most recently attached tracer. Each
 * hw::Machine attaches its own for its lifetime, so while several
 * machines are alive the one built last gets the log lines, and once
 * it dies the newest one left.
 */
void attachLogTracer(trace::Tracer &tracer);
void detachLogTracer(trace::Tracer &tracer);

namespace detail {

[[noreturn]] void logPanic(const char *file, int line, std::string msg);
[[noreturn]] void logFatal(const char *file, int line, std::string msg);
void logWarn(std::string msg);
void logInform(std::string msg);

std::string logFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Suppress warn()/inform() output (used by tests and benches). */
void setLogQuiet(bool quiet);

#define panic(...)                                                          \
    ::xpc::detail::logPanic(__FILE__, __LINE__,                             \
                            ::xpc::detail::logFormat(__VA_ARGS__))

#define fatal(...)                                                          \
    ::xpc::detail::logFatal(__FILE__, __LINE__,                             \
                            ::xpc::detail::logFormat(__VA_ARGS__))

#define warn(...)                                                           \
    ::xpc::detail::logWarn(::xpc::detail::logFormat(__VA_ARGS__))

#define inform(...)                                                         \
    ::xpc::detail::logInform(::xpc::detail::logFormat(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            panic(__VA_ARGS__);                                             \
        }                                                                   \
    } while (0)

#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) {                                                         \
            fatal(__VA_ARGS__);                                             \
        }                                                                   \
    } while (0)

} // namespace xpc

#endif // XPC_SIM_LOGGING_HH
