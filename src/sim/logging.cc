#include "sim/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace aqua::sim {

namespace {

void
vreport(const char *prefix, const char *fmt, std::va_list args)
{
    std::fprintf(stderr, "%s", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // anonymous namespace

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("panic: ", fmt, args);
    va_end(args);
    std::abort();
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vreport("warn: ", fmt, args);
    va_end(args);
}

} // namespace aqua::sim
