/**
 * @file
 * GPU device model: HBM capacity with a real allocator, a serialized
 * compute engine, and DMA ports used by the interconnect model.
 */

#ifndef AQUA_HW_GPU_HH
#define AQUA_HW_GPU_HH

#include <cstdint>
#include <string>

#include "hw/gpu_spec.hh"
#include "mem/region_allocator.hh"
#include "sim/simulation.hh"
#include "sim/ticks.hh"

namespace aqua::hw {

/** Index of a GPU within its server. */
using GpuId = int;

/** Sentinel meaning "host DRAM", used in transfer endpoints. */
constexpr GpuId hostDramId = -1;

/**
 * A serialized hardware resource tracked analytically.
 *
 * Rather than queueing an event per pipeline stage, each resource
 * remembers when it next becomes free; an occupy() reserves the first
 * feasible interval and advances that horizon. This is exact for FIFO
 * resources and keeps long simulations cheap.
 */
class Resource
{
  public:
    explicit Resource(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    /** Time at which the resource next becomes free. */
    aqua::sim::Tick freeAt() const { return busyUntil; }

    /** Whether the resource is occupied at @p now. */
    bool busyAt(aqua::sim::Tick now) const { return busyUntil > now; }

    /**
     * Reserve the resource for @p duration starting no earlier than
     * @p earliest.
     *
     * @return Completion time of the reservation.
     */
    aqua::sim::Tick
    occupy(aqua::sim::Tick earliest, aqua::sim::Tick duration)
    {
        aqua::sim::Tick start =
            busyUntil > earliest ? busyUntil : earliest;
        busyUntil = start + duration;
        totalBusy += duration;
        ++occupations;
        return busyUntil;
    }

    /** Accumulated busy time. */
    aqua::sim::Tick totalBusyTime() const { return totalBusy; }

    /** Number of reservations made. */
    std::uint64_t occupationCount() const { return occupations; }

  private:
    std::string _name;
    aqua::sim::Tick busyUntil = 0;
    aqua::sim::Tick totalBusy = 0;
    std::uint64_t occupations = 0;
};

/**
 * One GPU: identity, spec, HBM allocator, compute engine and DMA ports.
 *
 * The HBM is a byte-accurate RegionAllocator; serving engines carve
 * their weight, KV-pool and staging regions out of it, and AQUA leases
 * producer regions from it.
 */
class Gpu
{
  public:
    Gpu(aqua::sim::Simulation &sim, GpuId id, const GpuSpec &spec);

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    GpuId id() const { return _id; }
    const GpuSpec &spec() const { return _spec; }
    const std::string &name() const { return _name; }

    /** The HBM allocator. */
    aqua::mem::RegionAllocator &hbm() { return _hbm; }
    const aqua::mem::RegionAllocator &hbm() const { return _hbm; }

    /** Free HBM bytes right now. */
    std::uint64_t freeHbm() const { return _hbm.freeBytes(); }

    /**
     * Submit a compute task of the given ideal duration.
     *
     * The task is serialized behind previously submitted compute. While
     * a peer copy is in flight through this GPU's NVLink ports, compute
     * runs slower by the spec's copyComputeTax (Fig. 3b / Fig. 11 show
     * this effect is small but real).
     *
     * @param duration Ideal execution time of the task.
     * @return Completion time.
     */
    aqua::sim::Tick submitCompute(aqua::sim::Tick duration);

    /**
     * Like submitCompute(), but the task may not start before
     * @p earliest (e.g. it consumes data an in-flight copy delivers).
     */
    aqua::sim::Tick submitComputeAfter(aqua::sim::Tick earliest,
                                       aqua::sim::Tick duration);

    /** Accumulated compute busy time (utilization numerator). */
    aqua::sim::Tick computeBusyTime() const
    {
        return compute.totalBusyTime();
    }

    /** DMA ports; used by Topology when routing transfers. */
    Resource &nvlinkTx() { return _nvlinkTx; }
    Resource &nvlinkRx() { return _nvlinkRx; }
    Resource &pcieTx() { return _pcieTx; }
    Resource &pcieRx() { return _pcieRx; }

    /** Bytes moved through the NVLink ports (both directions). */
    std::uint64_t nvlinkBytes() const { return _nvlinkBytes; }
    /** Bytes moved through the PCIe ports (both directions). */
    std::uint64_t pcieBytes() const { return _pcieBytes; }

    /** Account transferred bytes (called by Topology). */
    void addNvlinkBytes(std::uint64_t b) { _nvlinkBytes += b; }
    void addPcieBytes(std::uint64_t b) { _pcieBytes += b; }

  private:
    aqua::sim::Simulation &sim;
    GpuId _id;
    GpuSpec _spec;
    std::string _name;
    aqua::mem::RegionAllocator _hbm;
    Resource compute;
    Resource _nvlinkTx;
    Resource _nvlinkRx;
    Resource _pcieTx;
    Resource _pcieRx;
    std::uint64_t _nvlinkBytes = 0;
    std::uint64_t _pcieBytes = 0;
};

} // namespace aqua::hw

#endif // AQUA_HW_GPU_HH
