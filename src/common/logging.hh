/**
 * @file
 * Status and error reporting helpers, in the spirit of gem5's
 * logging.hh: UserError for user errors, panic() for internal bugs,
 * warn()/inform() for status messages.
 */

#ifndef CASQ_COMMON_LOGGING_HH
#define CASQ_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace casq {

/**
 * A request the library cannot run, through no fault of its own: an
 * invalid Pauli letter, a circuit the forced substrate cannot
 * simulate, a register too wide for the dense state.  Library code
 * throws it and never ends the process; the CLIs print the message
 * and exit 1, and the job service fails the job without a retry,
 * since a rerun would fail the same way.
 */
class UserError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Verbosity levels for status messages. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Global verbosity; messages above this level are dropped. */
LogLevel logLevel();

/** Set the global verbosity (e.g. from a CLI flag). */
void setLogLevel(LogLevel level);

namespace detail {

/** Emit a message to stderr with a severity prefix. */
void emit(const char *prefix, const std::string &msg);

/**
 * Terminate with abort().  Used for conditions that indicate a bug in
 * casq itself, never the user's fault.
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Build a message from stream-able parts. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/** Informative message for the user; printed at Info verbosity. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Info)
        detail::emit("info: ", detail::format(args...));
}

/** Warn about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() >= LogLevel::Warn)
        detail::emit("warn: ", detail::format(args...));
}

/** Developer-level tracing; printed at Debug verbosity. */
template <typename... Args>
void
debug(Args &&...args)
{
    if (logLevel() >= LogLevel::Debug)
        detail::emit("debug: ", detail::format(args...));
}

} // namespace casq

/** Abort the program because of an internal casq bug. */
#define casq_panic(...)                                                     \
    ::casq::detail::panicImpl(__FILE__, __LINE__,                           \
                              ::casq::detail::format(__VA_ARGS__))

/** Panic unless an internal invariant holds. */
#define casq_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond))                                                        \
            casq_panic("assertion '", #cond, "' failed. ",                  \
                       ::casq::detail::format(__VA_ARGS__));                \
    } while (0)

#endif // CASQ_COMMON_LOGGING_HH
