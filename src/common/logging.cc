#include "common/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace casq {

namespace {
// Atomic so worker threads (ensemble compilation) can read the
// level while the main thread flips it from a CLI flag.
std::atomic<LogLevel> global_level{LogLevel::Warn};
} // namespace

LogLevel
logLevel()
{
    return global_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    global_level.store(level, std::memory_order_relaxed);
}

namespace detail {

void
emit(const char *prefix, const std::string &msg)
{
    std::cerr << prefix << msg << std::endl;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

} // namespace detail

} // namespace casq
