#include "logging.hh"

#include <cstdarg>
#include <vector>

#include "trace.hh"

namespace xpc {

namespace {

bool quietFlag = false;
LogSink sinkFn; // empty = default stdio sink
std::vector<trace::Tracer *> logTracers; // the last one gets records

/** stdio behaviour when no sink is installed. */
void
defaultSink(LogLevel level, const std::string &msg)
{
    switch (level) {
      case LogLevel::Panic:
        std::fprintf(stderr, "panic: %s\n", msg.c_str());
        break;
      case LogLevel::Fatal:
        std::fprintf(stderr, "fatal: %s\n", msg.c_str());
        break;
      case LogLevel::Warn:
        if (!quietFlag)
            std::fprintf(stderr, "warn: %s\n", msg.c_str());
        break;
      case LogLevel::Inform:
        if (!quietFlag)
            std::fprintf(stdout, "info: %s\n", msg.c_str());
        break;
    }
}

/** Route one record through the sink and the tracer. */
void
emit(LogLevel level, const std::string &msg)
{
    if (!logTracers.empty() && logTracers.back()->enabled())
        logTracers.back()->instantNow("log", logLevelName(level), 0, msg);
    if (sinkFn)
        sinkFn(level, msg);
    else
        defaultSink(level, msg);
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic:
        return "panic";
      case LogLevel::Fatal:
        return "fatal";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Inform:
        return "inform";
    }
    return "unknown";
}

void
setLogSink(LogSink sink)
{
    sinkFn = std::move(sink);
}

void
attachLogTracer(trace::Tracer &tracer)
{
    logTracers.push_back(&tracer);
}

void
detachLogTracer(trace::Tracer &tracer)
{
    std::erase(logTracers, &tracer);
}

void
setLogQuiet(bool quiet)
{
    quietFlag = quiet;
}

namespace detail {

std::string
logFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (len > 0) {
        out.resize(size_t(len) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args);
        out.resize(size_t(len));
    }
    va_end(args);
    return out;
}

void
logPanic(const char *file, int line, std::string msg)
{
    emit(LogLevel::Panic,
         msg + " (" + file + ":" + std::to_string(line) + ")");
    std::abort();
}

void
logFatal(const char *file, int line, std::string msg)
{
    emit(LogLevel::Fatal,
         msg + " (" + file + ":" + std::to_string(line) + ")");
    std::exit(1);
}

void
logWarn(std::string msg)
{
    emit(LogLevel::Warn, msg);
}

void
logInform(std::string msg)
{
    emit(LogLevel::Inform, msg);
}

} // namespace detail
} // namespace xpc
