#include "tests/alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace {

std::size_t allocations = 0;

void *
countedAlloc(std::size_t size) noexcept
{
    ++allocations;
    return std::malloc(size ? size : 1);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // anonymous namespace

namespace aqua::test {

std::size_t
allocCount()
{
    return allocations;
}

} // namespace aqua::test

void *operator new(std::size_t size) { return countedAllocOrThrow(size); }
void *operator new[](std::size_t size) { return countedAllocOrThrow(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
