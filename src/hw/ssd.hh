/**
 * @file
 * NVMe SSD device model: the storage tier below host DRAM.
 *
 * The media reuses the Link bandwidth ramp to model the
 * sequential-vs-random divide: large sequential accesses saturate the
 * drive's streaming bandwidth while small random accesses pay the
 * ramp's small-transfer penalty per chunk — the same shape that makes
 * scattered KV blocks expensive on NVLink makes them expensive on
 * flash, only the knee sits at hundreds of kilobytes instead of
 * megabytes. Parallelism is bounded by a fixed queue depth: accesses
 * spread across that many serialized channels and queue behind each
 * other once the depth is saturated, which is what caps random-read
 * throughput on real drives.
 *
 * The device is purely analytic (busy-until horizons, no events), so
 * callers chain its completion ticks into Topology transfers via the
 * `earliest` parameter.
 */

#ifndef AQUA_HW_SSD_HH
#define AQUA_HW_SSD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/gpu.hh"
#include "hw/link.hh"
#include "mem/region_allocator.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"

namespace aqua::hw {

/** Sentinel meaning "the server's SSD", used in transfer endpoints. */
constexpr GpuId ssdId = -2;

/** Drive parameters, defaulted to a datacenter NVMe device. */
struct SsdSpec
{
    std::string name = "nvme0";
    /** Media capacity. */
    std::uint64_t capacityBytes = std::uint64_t(4096) << 30;
    /** Peak sequential read bandwidth (bytes/second). */
    double readBandwidth = 7.0e9;
    /** Peak sequential write bandwidth (bytes/second). */
    double writeBandwidth = 5.0e9;
    /**
     * Access size achieving half the peak — the sequential-vs-random
     * knee. 256 KiB puts a 4 KiB random read at ~1.5% of peak per
     * channel, matching measured QD1 random throughput.
     */
    std::uint64_t rampBytes = 256 * aqua::sim::kib;
    /** Fixed per-access read latency. */
    aqua::sim::Tick readLatency = aqua::sim::usToTicks(80.0);
    /** Fixed per-access write latency (write cache absorbs some). */
    aqua::sim::Tick writeLatency = aqua::sim::usToTicks(25.0);
    /** Concurrent accesses the controller sustains (NVMe queue depth). */
    unsigned queueDepth = 8;
};

/**
 * One SSD: capacity behind a real allocator plus an analytic timing
 * model with bounded internal parallelism and a fault surface.
 */
class Ssd
{
  public:
    explicit Ssd(SsdSpec spec = {});

    Ssd(const Ssd &) = delete;
    Ssd &operator=(const Ssd &) = delete;

    const SsdSpec &spec() const { return _spec; }
    const std::string &name() const { return _spec.name; }

    aqua::mem::RegionAllocator &allocator() { return alloc; }
    std::uint64_t capacity() const { return alloc.capacity(); }
    std::uint64_t freeBytes() const { return alloc.freeBytes(); }

    /**
     * Reserve media time for @p count read accesses of @p chunkBytes
     * each, spread across the channel pool, starting no earlier than
     * @p earliest.
     *
     * @return Completion tick of the last access.
     */
    aqua::sim::Tick read(std::uint64_t chunkBytes, std::uint64_t count,
                         aqua::sim::Tick earliest);

    /** Write-side counterpart of read(). */
    aqua::sim::Tick write(std::uint64_t chunkBytes, std::uint64_t count,
                          aqua::sim::Tick earliest);

    /**
     * Pure timing query: media time of @p count read accesses of
     * @p chunkBytes on an idle drive, ignoring queued work.
     */
    aqua::sim::Tick readDuration(std::uint64_t chunkBytes,
                                 std::uint64_t count) const;

    /** Pure timing query for writes. */
    aqua::sim::Tick writeDuration(std::uint64_t chunkBytes,
                                  std::uint64_t count) const;

    //
    // Fault surface (driven by fault::FaultInjector via Topology).
    //

    /**
     * Degrade (factor in (0, 1)) or restore (1.0) media bandwidth —
     * e.g. garbage collection, thermal throttling, or a failing die.
     * Composes with the sequential-vs-random ramp.
     */
    void setDegradation(double factor);

    /** Current degradation factor (1.0 when healthy). */
    double degradation() const { return readLink.degradation(); }

    /** Mark the whole device failed: any access afterwards panics. */
    void setFailed(bool failed) { _failed = failed; }

    /** Whether the device is currently failed. */
    bool failed() const { return _failed; }

    /** Total bytes read from media. */
    std::uint64_t bytesRead() const { return _bytesRead; }

    /** Total bytes written to media. */
    std::uint64_t bytesWritten() const { return _bytesWritten; }

    /**
     * At-rest bitrot (ssd_bitrot fault): each read-side integrity
     * draw flips with this probability while the fault window is
     * open. 0 (the default) disables the model and never advances
     * the dedicated RNG, keeping fault-free runs bit-identical.
     */
    void setBitrot(double p) { bitrotP = p; }
    double bitrot() const { return bitrotP; }

    /**
     * One integrity draw for a payload read back from media. Unlike a
     * link corruption, a hit means the *stored* copy is damaged:
     * retransmission cannot repair it, the reader must fall back to a
     * replica or recompute.
     */
    bool
    drawBitrot()
    {
        if (bitrotP <= 0.0 || !bitrotRng.bernoulli(bitrotP))
            return false;
        ++_bitrotHits;
        return true;
    }

    /** Bitrot corruptions injected so far (chaos-harness ground
     *  truth). */
    std::uint64_t bitrotCorruptions() const { return _bitrotHits; }

  private:
    /** Spread @p count accesses of @p duration over the channels. */
    aqua::sim::Tick occupyChannels(aqua::sim::Tick perAccess,
                                   std::uint64_t count,
                                   aqua::sim::Tick earliest);

    SsdSpec _spec;
    aqua::mem::RegionAllocator alloc;
    Link readLink;
    Link writeLink;
    /** One serialized lane per unit of queue depth. */
    std::vector<Resource> channels;
    bool _failed = false;
    std::uint64_t _bytesRead = 0;
    std::uint64_t _bytesWritten = 0;
    double bitrotP = 0.0;
    /** Dedicated stream (see Topology::corruptRng). */
    aqua::sim::Random bitrotRng{0xb17a07d5a4e5eed5ull};
    std::uint64_t _bitrotHits = 0;
};

} // namespace aqua::hw

#endif // AQUA_HW_SSD_HH
