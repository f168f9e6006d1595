/**
 * @file
 * Scatter/gather staging: kernel pricing and the staging engine.
 *
 * §5 ("Small transfers are slow over NVlinks"): a sequence's KV blocks
 * are scattered across vLLM's paged layout, so a naive swap issues many
 * small copies — exactly the regime where NVLink bandwidth collapses
 * (Fig. 3a). AQUA instead gathers the scattered blocks into one
 * temporary staging tensor with a custom CUDA kernel and ships a single
 * large transfer; the receive side scatters symmetrically.
 *
 * Two layers live here:
 *
 *  - StagingModel prices the gather/scatter kernels themselves: one
 *    kernel launch plus a round trip of the payload through HBM at the
 *    device's bandwidth.
 *  - StagingEngine is the transfer planner/executor the backends use.
 *    It coalesces scattered copy descriptors into contiguous
 *    staging-buffer transfers (merging adjacent blocks, splitting at
 *    the staging-slot size, shipping already-large blocks directly),
 *    and executes the plan double-buffered: with two staging slots,
 *    the gather for transfer N+1 fills one slot while transfer N
 *    drains the other, overlapping kernel time with wire time.
 */

#ifndef AQUA_AQUA_STAGING_HH
#define AQUA_AQUA_STAGING_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/gpu_spec.hh"
#include "hw/server.hh"
#include "mem/region_allocator.hh"
#include "sim/ticks.hh"
#include "stats/summary.hh"

namespace aqua::core {

/**
 * Prices staging operations for a given GPU.
 */
class StagingModel
{
  public:
    explicit StagingModel(const hw::GpuSpec &spec) : spec(spec) {}

    /**
     * Time for the gather kernel: read @p bytes from scattered blocks
     * and write them contiguously into the staging buffer (HBM round
     * trip), plus one kernel launch.
     */
    aqua::sim::Tick gatherTime(std::uint64_t bytes) const;

    /** Scatter is symmetric with gather. */
    aqua::sim::Tick
    scatterTime(std::uint64_t bytes) const
    {
        return gatherTime(bytes);
    }

  private:
    hw::GpuSpec spec;
};

/** One scattered block to move: a device (offset, size) pair. */
struct CopyDesc
{
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
};

/** One wire transfer planned by the coalescer. */
struct StagedTransfer
{
    /** Device offset of the transfer's first byte. */
    std::uint64_t offset = 0;
    /** Payload carried by this wire transfer. */
    std::uint64_t bytes = 0;
    /** Descriptors packed in (fragments count once per transfer). */
    std::uint64_t descCount = 0;
    /** Whether the gather/scatter kernel and a staging slot are
     *  needed; contiguous payloads ship directly. */
    bool staged = false;
};

/** Tunables of the staging engine. */
struct StagingEngineConfig
{
    /**
     * Coalescing threshold: descriptors at or above this size are
     * already in the link's high-bandwidth regime and ship directly,
     * skipping the gather kernel and the staging buffer.
     */
    std::uint64_t coalesceThresholdBytes = std::uint64_t(8) << 20;

    /**
     * Staging slot size; staged transfers are split at this size so a
     * batch never overruns its slot.
     */
    std::uint64_t slotBytes = std::uint64_t(32) << 20;

    /**
     * Number of staging slots. Two gives classic double buffering:
     * the gather for transfer N+1 fills one slot while transfer N
     * drains the other. One slot serializes gather and wire time.
     */
    std::uint32_t slots = 2;
};

/** Per-transfer accounting, recorded through the stats layer. */
struct StagingTransferStats
{
    /** Wire transfers issued (staged + direct). */
    std::uint64_t transfers = 0;
    /** Wire transfers that went through a staging slot. */
    std::uint64_t stagedTransfers = 0;
    /** Wire transfers that bypassed staging. */
    std::uint64_t directTransfers = 0;
    /** Descriptors folded into staged transfers. */
    std::uint64_t coalescedDescriptors = 0;
    /** Total payload moved. */
    std::uint64_t bytesMoved = 0;
    /** Payload moved through staging slots. */
    std::uint64_t stagedBytes = 0;
    /** Per-wire-transfer effective bandwidth, bytes/second. */
    aqua::stats::Summary effectiveBandwidth;
    /** Per-wire-transfer queue latency (ready to port grant), ticks. */
    aqua::stats::Summary queueLatency;
};

/**
 * Plans and executes coalesced, double-buffered scatter/gather
 * transfers between one GPU and a peer GPU or host DRAM.
 *
 * The staging buffer (slots * slotBytes) is carved from the GPU's HBM
 * lazily, on the first staged transfer. Slot reuse is tracked across
 * calls: a slot is free again once the transfer that drained it (or
 * the scatter that emptied it) has completed, which is what lets a
 * later gather overlap an earlier drain.
 */
class StagingEngine
{
  public:
    /**
     * @param server Owning server (topology + GPUs).
     * @param gpu The engine's local GPU.
     * @param config Tunables.
     */
    StagingEngine(hw::Server &server, hw::GpuId gpu,
                  StagingEngineConfig config = {});

    StagingEngine(const StagingEngine &) = delete;
    StagingEngine &operator=(const StagingEngine &) = delete;
    ~StagingEngine();

    const StagingEngineConfig &config() const { return cfg; }
    const StagingTransferStats &stats() const { return counters; }

    /**
     * Pure planning: coalesce @p descs into wire transfers.
     *
     * Adjacent contiguous descriptors merge; merged runs at or above
     * the coalescing threshold ship directly; the rest pack into
     * staged transfers split at the slot size. Descriptor order is
     * preserved and bytes are conserved exactly.
     */
    std::vector<StagedTransfer>
    plan(const std::vector<CopyDesc> &descs) const;

    /**
     * Build a uniformly scattered descriptor set: @p nChunks blocks
     * totalling exactly @p bytes, strided so no two are contiguous —
     * the shape of a paged KV layout.
     */
    static std::vector<CopyDesc>
    uniformChunks(std::uint64_t bytes, std::uint64_t nChunks);

    /**
     * Move @p descs from the local GPU to @p dst (gather side): each
     * staged transfer is gathered into a slot, then drains over the
     * wire while the next gather fills the other slot.
     *
     * @return start = first wire transfer start, complete = last wire
     *         transfer completion.
     */
    hw::TransferTiming transferOut(hw::GpuId dst,
                                   const std::vector<CopyDesc> &descs,
                                   aqua::sim::Tick earliest = 0);

    /**
     * Move @p descs from @p src into scattered local blocks (scatter
     * side); symmetric with transferOut().
     *
     * @return start = first wire transfer start, complete = last
     *         scatter-kernel completion.
     */
    hw::TransferTiming transferIn(hw::GpuId src,
                                  const std::vector<CopyDesc> &descs,
                                  aqua::sim::Tick earliest = 0);

    /**
     * Move @p bytes scattered over @p nChunks blocks between the local
     * GPU and @p peer (@p outbound: local to peer). One contiguous
     * copy when nChunks <= 1; else the coalesced, staged transferOut()
     * / transferIn() when @p staged; else nChunks unstaged copies of
     * max(1, bytes / nChunks) each.
     */
    hw::TransferTiming transferChunks(hw::GpuId peer, bool outbound,
                                      std::uint64_t bytes,
                                      std::uint64_t nChunks, bool staged,
                                      aqua::sim::Tick earliest);

  private:
    hw::TransferTiming execute(hw::GpuId peer, bool outbound,
                               const std::vector<StagedTransfer> &xfers,
                               aqua::sim::Tick earliest);
    void ensureStagingBuffer();

    hw::Server &server;
    hw::GpuId gpu;
    StagingEngineConfig cfg;
    StagingModel model;
    /** Staging buffer on local HBM (allocated lazily). */
    std::optional<aqua::mem::Region> stagingRegion;
    /** Per-slot reuse horizon; persists across calls. */
    std::vector<aqua::sim::Tick> slotFree;
    std::uint64_t nextSlot = 0;
    StagingTransferStats counters;
};

} // namespace aqua::core

#endif // AQUA_AQUA_STAGING_HH
