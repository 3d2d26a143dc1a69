/**
 * @file
 * Error reporting and optional debug tracing.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (simulator bugs, with their source location), fatal()
 * for user/configuration errors (the message alone),
 * warn()/inform() for advisories. Debug tracing is compiled in but
 * gated at run time by Trace::enabled, so hot paths stay cheap.
 */

#ifndef TLR_SIM_LOGGING_HH
#define TLR_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace tlr
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Run-time switchable trace stream, used by DTRACE below. */
struct Trace
{
    /** Master enable; off by default so benches run at full speed. */
    static bool enabled;
    /** Emit one trace line, prefixed with the current tick if >= 0. */
    static void print(long long tick, const char *component,
                      const std::string &msg);
};

} // namespace tlr

#define panic(...) \
    ::tlr::panicImpl(__FILE__, __LINE__, ::tlr::strfmt(__VA_ARGS__))
#define fatal(...) \
    ::tlr::fatalImpl(::tlr::strfmt(__VA_ARGS__))
#define warn(...) ::tlr::warnImpl(::tlr::strfmt(__VA_ARGS__))
#define inform(...) ::tlr::informImpl(::tlr::strfmt(__VA_ARGS__))

/** Trace macro: DTRACE(tick, "Bus", "order %d", x). Cheap when off. */
#define DTRACE(tick, comp, ...)                                          \
    do {                                                                 \
        if (::tlr::Trace::enabled)                                       \
            ::tlr::Trace::print(static_cast<long long>(tick), comp,      \
                                ::tlr::strfmt(__VA_ARGS__));             \
    } while (0)

#endif // TLR_SIM_LOGGING_HH
