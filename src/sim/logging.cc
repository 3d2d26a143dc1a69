#include "sim/logging.hh"

#include <cstdarg>
#include <stdexcept>

namespace tlr
{

bool Trace::enabled = false;

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<size_t>(n));
        std::vsnprintf(out.data(), static_cast<size_t>(n) + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throwing (rather than abort()) lets death/property tests observe
    // invariant violations; main() converts uncaught throws to abort.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(stderr);
    throw std::runtime_error("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
Trace::print(long long tick, const char *component, const std::string &msg)
{
    std::fprintf(stderr, "%10lld: %-10s: %s\n", tick, component, msg.c_str());
}

} // namespace tlr
