/**
 * @file
 * First-fit byte-range allocator with free-list coalescing.
 *
 * Models the general-purpose region of a GPU's HBM (weights, LoRA
 * adapters, staging buffers, leased offload regions). Addresses are
 * simulated offsets within the device; nothing is backed by real
 * storage, but sizes, fragmentation and failure behaviour are exact.
 */

#ifndef AQUA_MEM_REGION_ALLOCATOR_HH
#define AQUA_MEM_REGION_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <optional>

namespace aqua::mem {

/** A contiguous allocated range. */
struct Region
{
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
};

/**
 * First-fit allocator over [0, capacity).
 *
 * Free ranges are kept in an address-ordered map so adjacent ranges
 * coalesce on free. Allocation granularity is configurable (default
 * 256 B, matching CUDA's allocation alignment).
 */
class RegionAllocator
{
  public:
    /**
     * @param capacity Total bytes managed.
     * @param alignment Allocation granularity; must be a power of two.
     */
    explicit RegionAllocator(std::uint64_t capacity,
                             std::uint64_t alignment = 256);

    /**
     * Allocate @p size bytes (rounded up to the alignment).
     *
     * @return The region, or std::nullopt when no free range fits.
     */
    std::optional<Region> allocate(std::uint64_t size);

    /**
     * Free a previously allocated region.
     * Freeing an unknown address panics (double-free detection).
     */
    void free(const Region &region);

    /** Shorthand: free by address. */
    void free(std::uint64_t addr);

    std::uint64_t capacity() const { return cap; }
    std::uint64_t usedBytes() const { return used; }
    std::uint64_t freeBytes() const { return cap - used; }

    /** Size of the largest contiguous free range. */
    std::uint64_t largestFreeRange() const;

    /** Number of discontiguous free ranges (fragmentation proxy). */
    std::size_t freeRangeCount() const { return freeRanges.size(); }

    /**
     * External fragmentation metric in [0, 1]:
     * 1 - largestFreeRange / freeBytes (0 when fully coalesced).
     */
    double fragmentation() const;

  private:
    std::uint64_t roundUp(std::uint64_t size) const;

    std::uint64_t cap;
    std::uint64_t align;
    std::uint64_t used = 0;
    /** addr -> size of free ranges, address ordered. */
    std::map<std::uint64_t, std::uint64_t> freeRanges;
    /** addr -> size of live allocations. */
    std::map<std::uint64_t, std::uint64_t> live;
};

} // namespace aqua::mem

#endif // AQUA_MEM_REGION_ALLOCATOR_HH
