/**
 * @file
 * Counting replacements of the global operator new and delete, for
 * tests that assert a code path allocates nothing. Linking
 * alloc_counter.cc into a test executable replaces every replaceable
 * non-aligned form (std::stable_sort's buffer comes from the nothrow
 * one), so allocation and release always pair malloc with free.
 * Over-aligned forms keep the runtime's pair.
 */

#ifndef AQUA_TESTS_ALLOC_COUNTER_HH
#define AQUA_TESTS_ALLOC_COUNTER_HH

#include <cstddef>

namespace aqua::test {

/** Global allocations this executable has made so far. */
std::size_t allocCount();

} // namespace aqua::test

#endif // AQUA_TESTS_ALLOC_COUNTER_HH
