#include "common/log.hh"

#include <atomic>
#include <cstdarg>

namespace bwsim
{

namespace
{
std::atomic<bool> gQuiet{false};
} // anonymous namespace

void
setQuiet(bool q)
{
    gQuiet.store(q);
}

bool
quiet()
{
    return gQuiet.load();
}

std::string
csprintf(const char *fmt, ...)
{
    // One pass into a stack buffer covers nearly every caller (names,
    // file names, stat lines); only longer output formats twice.
    char stack[256];
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int len = std::vsnprintf(stack, sizeof(stack), fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    const std::size_t n = static_cast<std::size_t>(len);
    if (n < sizeof(stack)) {
        va_end(args_copy);
        return std::string(stack, n);
    }
    // std::string keeps a writable terminator slot at data()[n].
    std::string out(n, '\0');
    std::vsnprintf(out.data(), n + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    if (!gQuiet.load())
        std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

void
informImpl(const std::string &msg)
{
    if (!gQuiet.load())
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace bwsim
