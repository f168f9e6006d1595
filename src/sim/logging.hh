/**
 * @file
 * Error and status reporting helpers.
 *
 * Semantics follow the gem5 convention:
 *  - panic(): an internal simulator invariant was violated (a bug);
 *             aborts so the failure can be debugged.
 *  - warn():  something is off but the run can continue.
 */

#ifndef AQUA_SIM_LOGGING_HH
#define AQUA_SIM_LOGGING_HH

namespace aqua::sim {

/** Abort with a formatted message: internal invariant violated. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace aqua::sim

#endif // AQUA_SIM_LOGGING_HH
