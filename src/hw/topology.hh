/**
 * @file
 * Intra-server interconnect: NVLink (direct pairs or NVSwitch) between
 * GPUs and PCIe between each GPU and host DRAM.
 *
 * The paper's two testbeds map onto the two topology kinds:
 *  - a 2-GPU server with direct point-to-point NVLinks, and
 *  - an 8-GPU server where GPUs reach each other through NVSwitches.
 */

#ifndef AQUA_HW_TOPOLOGY_HH
#define AQUA_HW_TOPOLOGY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "hw/gpu.hh"
#include "hw/link.hh"
#include "hw/ssd.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace aqua::hw {

/** Interconnect flavour between GPUs on one server. */
enum class TopologyKind
{
    /** Every GPU pair connected by dedicated NVLinks. */
    DirectP2P,
    /** All GPUs attached to an NVSwitch fabric. */
    NvSwitch,
};

/** Completion callback for an asynchronous transfer. */
using TransferCallback = std::function<void()>;

/** Result of issuing a transfer: when it starts and completes. */
struct TransferTiming
{
    aqua::sim::Tick start;
    aqua::sim::Tick complete;
};

/**
 * Routes and times data movement within one server.
 *
 * Transfers are analytic: each occupies the source's egress port and
 * the destination's ingress port for the link-model duration; the
 * caller receives a completion callback at the finish time. Port
 * serialization is what makes a producer GPU shared by multiple
 * consumers a bottleneck — the behaviour AQUA-PLACER's
 * one-producer-per-consumer rule avoids (§4).
 */
class Topology
{
  public:
    /**
     * @param sim Shared simulation.
     * @param gpus The server's GPUs (non-owning; must outlive this).
     * @param kind Interconnect flavour.
     */
    Topology(aqua::sim::Simulation &sim, std::vector<Gpu *> gpus,
             TopologyKind kind);

    TopologyKind kind() const { return _kind; }
    std::size_t numGpus() const { return gpus.size(); }

    /** The NVLink link model between two distinct GPUs. */
    const Link &peerLink() const { return nvlink; }

    /**
     * Pure timing query: duration of a single peer copy of @p bytes,
     * ignoring contention.
     */
    aqua::sim::Tick peerTransferDuration(std::uint64_t bytes) const;

    /** Pure timing query for a host (PCIe) copy. */
    aqua::sim::Tick hostTransferDuration(std::uint64_t bytes) const;

    /**
     * Register the server's SSD so ssdId becomes a routable endpoint.
     * GPU↔SSD copies chain a PCIe hop with media time; DRAM↔SSD
     * copies are media-only (tier demotion/promotion below the GPUs).
     */
    void attachSsd(Ssd &ssd) { _ssd = &ssd; }

    /** The attached SSD, or nullptr when the server has none. */
    Ssd *ssd() { return _ssd; }
    const Ssd *ssd() const { return _ssd; }

    /**
     * Issue an asynchronous copy between two GPUs (peer), between a
     * GPU and host DRAM (use hostDramId as one endpoint), or to/from
     * the SSD tier (use ssdId; requires attachSsd()).
     *
     * @param src Source endpoint (GpuId, hostDramId or ssdId).
     * @param dst Destination endpoint (GpuId, hostDramId or ssdId).
     * @param bytes Transfer size.
     * @param cb Invoked at completion (may be empty).
     * @param earliest Do not start before this tick (e.g. a staging
     *                 gather must finish first); 0 means "now".
     * @return Timing of the reserved transfer.
     */
    TransferTiming copy(GpuId src, GpuId dst, std::uint64_t bytes,
                        TransferCallback cb = {},
                        aqua::sim::Tick earliest = 0);

    /**
     * Issue @p count back-to-back copies of @p chunkBytes each over the
     * same route — the unstaged scattered-copy pattern whose cost
     * motivates AQUA's gather/scatter kernels (§5).
     */
    TransferTiming copyChunked(GpuId src, GpuId dst,
                               std::uint64_t chunkBytes,
                               std::uint64_t count,
                               TransferCallback cb = {},
                               aqua::sim::Tick earliest = 0);

    /**
     * Move @p bytes scattered over @p nChunks blocks, unstaged: one
     * copy() when nChunks <= 1, else copyChunked() with
     * max(1, bytes / nChunks) per chunk.
     */
    TransferTiming copyScattered(GpuId src, GpuId dst,
                                 std::uint64_t bytes,
                                 std::uint64_t nChunks,
                                 aqua::sim::Tick earliest);

    /** Total bytes moved over NVLink routes. */
    std::uint64_t peerBytesMoved() const { return _peerBytes; }

    /** Total bytes moved over PCIe routes. */
    std::uint64_t hostBytesMoved() const { return _hostBytes; }

    //
    // Fault surface (driven by fault::FaultInjector).
    //

    /**
     * Degrade (factor in (0, 1)) or restore (1.0) the NVLink model's
     * bandwidth. The size-aware ramp keeps its shape; every transfer
     * issued while degraded is slower by 1/factor.
     */
    void degradePeerLink(double factor);

    /** Degrade or restore the PCIe model's bandwidth. */
    void degradeHostLink(double factor);

    /** Degrade or restore the attached SSD's media bandwidth. */
    void degradeSsd(double factor);

    /** Mark the attached SSD failed: accesses afterwards panic. */
    void markSsdFailed(bool failed);

    /** Whether the attached SSD is failed (false when none). */
    bool ssdFailed() const { return _ssd && _ssd->failed(); }

    /**
     * Mark a GPU's memory dark after its grace window: any transfer
     * that touches it afterwards panics — a correct recovery path must
     * have finished evacuating by then.
     */
    void markGpuFailed(GpuId gpu, bool failed);

    /** Whether a GPU is currently marked failed (memory dark). */
    bool gpuFailed(GpuId gpu) const;

    /**
     * In-flight payload corruption (payload_corrupt fault): each
     * link-payload integrity draw flips with this probability while
     * the fault window is open. 0 (the default) disables the model —
     * and the dedicated RNG is never advanced, so fault-free runs stay
     * bit-identical.
     */
    void setPayloadCorruption(double p) { corruptP = p; }

    /**
     * One end-to-end integrity draw for a payload that crossed a
     * link. Consumers (engine read paths, AquaLib migrations) call
     * this once per verified payload; a true return means the FNV-1a
     * signature check fails and the reader must repair or recompute.
     */
    bool
    drawPayloadCorruption()
    {
        if (corruptP <= 0.0 || !corruptRng.bernoulli(corruptP))
            return false;
        ++_payloadCorruptions;
        return true;
    }

    /** Corrupted payloads injected so far (ground truth for the
     *  chaos harness's zero-silent-corruption conservation check). */
    std::uint64_t payloadCorruptions() const { return _payloadCorruptions; }

    /** At-rest bitrot probability on the attached SSD (ssd_bitrot). */
    void
    setSsdBitrot(double p)
    {
        if (_ssd)
            _ssd->setBitrot(p);
    }

  private:
    /** Validate an endpoint id; panics on garbage. */
    void checkEndpoint(GpuId id) const;

    TransferTiming route(GpuId src, GpuId dst, std::uint64_t bytes,
                         aqua::sim::Tick duration, TransferCallback cb,
                         aqua::sim::Tick earliest);

    /** Route a copy with ssdId as one endpoint. */
    TransferTiming routeSsd(GpuId src, GpuId dst,
                            std::uint64_t chunkBytes,
                            std::uint64_t count, TransferCallback cb,
                            aqua::sim::Tick earliest);

    aqua::sim::Simulation &sim;
    std::vector<Gpu *> gpus;
    TopologyKind _kind;
    Link nvlink;
    Link pcie;
    Ssd *_ssd = nullptr;
    std::uint64_t _peerBytes = 0;
    std::uint64_t _hostBytes = 0;
    std::vector<bool> failed;
    double corruptP = 0.0;
    /** Dedicated stream so corruption draws never perturb the
     *  simulation's other randomness (twin-run determinism). */
    aqua::sim::Random corruptRng{0xc0de5eed1badf00dull};
    std::uint64_t _payloadCorruptions = 0;
};

} // namespace aqua::hw

#endif // AQUA_HW_TOPOLOGY_HH
