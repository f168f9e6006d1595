/**
 * @file
 * SSD offload backend: the storage tier below host DRAM.
 *
 * Same contract as DramBackend, one tier further down: GPU-side writes
 * cross PCIe into DRAM and drain onto the media behind it; reads pay
 * the media time first and then the PCIe hop up. Scattered chunks
 * always route through the staging engine — coalescing matters twice
 * here because small accesses sit on the slow end of both the PCIe ramp
 * and the drive's sequential-vs-random ramp, so per-chunk random I/O is
 * never the sensible choice for flash even though the DRAM baseline
 * ships unstaged.
 *
 * The tier-local move methods (DRAM↔SSD) exist for SsdTier: demoting
 * swapped-out KV out of DRAM touches only the media, not the GPU's
 * PCIe ports.
 */

#ifndef AQUA_SERVE_SSD_BACKEND_HH
#define AQUA_SERVE_SSD_BACKEND_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "aqua/staging.hh"
#include "hw/server.hh"
#include "serve/offload_backend.hh"
#include "sim/ticks.hh"

namespace aqua::serve {

/**
 * Offloading to the server's SSD through host DRAM.
 */
class SsdBackend : public OffloadBackend
{
  public:
    /**
     * @param server Owning server (SSD + DRAM + topology).
     * @param gpu The engine's GPU.
     */
    SsdBackend(hw::Server &server, hw::GpuId gpu);
    ~SsdBackend() override;

    std::optional<Handle> alloc(std::uint64_t bytes) override;
    void free(const Handle &handle) override;
    hw::TransferTiming write(const Handle &handle, std::uint64_t bytes,
                             std::uint64_t nChunks,
                             aqua::sim::Tick earliest = 0) override;
    hw::TransferTiming read(const Handle &handle, std::uint64_t bytes,
                            std::uint64_t nChunks,
                            aqua::sim::Tick earliest = 0) override;
    aqua::sim::Tick respond() override;
    bool staged() const override { return true; }
    std::string name() const override { return "ssd"; }

    /**
     * Tier-local demotion: drain @p bytes already resident in host
     * DRAM onto the media (no GPU PCIe involvement).
     */
    hw::TransferTiming writeFromDram(const Handle &handle,
                                     std::uint64_t bytes,
                                     std::uint64_t nChunks,
                                     aqua::sim::Tick earliest = 0);

    /** Tier-local promotion: media read into host DRAM. */
    hw::TransferTiming readToDram(const Handle &handle,
                                  std::uint64_t bytes,
                                  std::uint64_t nChunks,
                                  aqua::sim::Tick earliest = 0);

    /** Staging-engine accounting. */
    const core::StagingTransferStats &stagingStats() const
    {
        return engine.stats();
    }

  private:
    hw::Server &server;
    core::StagingEngine engine;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, aqua::mem::Region> regions;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_SSD_BACKEND_HH
