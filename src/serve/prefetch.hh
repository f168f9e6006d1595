/**
 * @file
 * Tier-aware predictive prefetch: the StagingEngine's double-buffering
 * generalized across the storage tiers.
 *
 * A stream restores a parked payload SSD→DRAM→HBM as a sliding window
 * of fixed-size transfers: window N drains DRAM→HBM over PCIe while
 * window N+1 is already being read off the media into the other DRAM
 * bounce buffer. Because the media (≈7 GB/s) is slower than PCIe
 * (≈25 GB/s), a well-pipelined stream hides nearly all of the PCIe
 * time — and the whole stream runs behind the decode compute of the
 * sequences that never went cold.
 *
 * Streams are event-driven (one continuation per window), which is
 * what makes cancellation real: when the predictor misses — the engine
 * decides to recompute after all, or the resumed session sheds — the
 * remaining windows are never issued. Windows already in flight
 * complete and their bytes are charged as waste.
 */

#ifndef AQUA_SERVE_PREFETCH_HH
#define AQUA_SERVE_PREFETCH_HH

#include <cstdint>
#include <functional>
#include <map>

#include "hw/server.hh"
#include "sim/ticks.hh"
#include "stats/summary.hh"

namespace aqua::serve {

/** Aggregate pipeline accounting. */
struct PrefetchStats
{
    std::uint64_t streamsStarted = 0;
    std::uint64_t streamsCompleted = 0;
    std::uint64_t streamsCancelled = 0;
    std::uint64_t windowsIssued = 0;
    /** Windows skipped because their stream was cancelled. */
    std::uint64_t windowsCancelled = 0;
    /** Payload delivered to HBM by completed streams. */
    std::uint64_t bytesStreamed = 0;
    /** Bytes issued on behalf of streams that were then cancelled. */
    std::uint64_t bytesWasted = 0;
    /** Per-completed-stream overlap efficiency (0 = serial, 1 = fully
     *  pipelined: the shorter stage entirely hidden by the longer). */
    aqua::stats::Summary overlapEfficiency;
};

/**
 * Windowed SSD→DRAM→HBM streamer with double buffering and
 * cancellation.
 */
class PrefetchPipeline
{
  public:
    using StreamId = std::uint64_t;

    /** Completion report for one stream. */
    struct Done
    {
        /** First media access start. */
        aqua::sim::Tick start = 0;
        /** Last byte landed in HBM (or cancellation point). */
        aqua::sim::Tick complete = 0;
        /** Payload delivered (issued windows only, if cancelled). */
        std::uint64_t bytes = 0;
        /** Fraction of the shorter pipeline stage hidden behind the
         *  longer one. */
        double overlapEfficiency = 0.0;
        bool cancelled = false;
    };

    using DoneCallback = std::function<void(const Done &)>;

    /** Sliding-window transfer size. */
    static constexpr std::uint64_t windowBytes = std::uint64_t(32) << 20;

    /**
     * @param buffers DRAM bounce buffers. Two gives double buffering
     *        (media read N+1 overlaps PCIe drain N); one serializes
     *        the stages.
     */
    PrefetchPipeline(hw::Server &server, hw::GpuId gpu,
                     std::uint32_t buffers = 2);

    PrefetchPipeline(const PrefetchPipeline &) = delete;
    PrefetchPipeline &operator=(const PrefetchPipeline &) = delete;

    const PrefetchStats &stats() const { return counters; }

    /**
     * Start streaming @p bytes from the media into HBM.
     *
     * @param bytes Payload size (> 0).
     * @param earliest Do not touch the media before this tick.
     * @param onDone Invoked once, when the last window lands or the
     *        stream winds down after a cancellation.
     * @return Stream id for cancel()/active().
     */
    StreamId start(std::uint64_t bytes, aqua::sim::Tick earliest,
                   DoneCallback onDone = {});

    /**
     * Predictor miss: stop issuing windows for @p id. In-flight
     * windows complete (their cost stands); the rest never run.
     *
     * @retval true The stream was still active and is now winding
     *         down; its onDone fires with cancelled = true.
     * @retval false Unknown or already-finished stream.
     */
    bool cancel(StreamId id);

    /** Whether a stream is still in flight. */
    bool active(StreamId id) const;

    /**
     * Pure estimate of an idle-pipeline stream makespan for @p bytes
     * — what the stream-vs-recompute check compares against the
     * roofline prefill time. Accounts for the current degradation of
     * both the media and PCIe, and for window pipelining.
     */
    aqua::sim::Tick estimate(std::uint64_t bytes) const;

  private:
    struct Stream
    {
        std::uint64_t remaining = 0;
        std::uint64_t delivered = 0;
        std::uint32_t nextSlot = 0;
        aqua::sim::Tick start = 0;
        aqua::sim::Tick lastComplete = 0;
        /** Sum of per-window media durations (pure, uncontended). */
        aqua::sim::Tick mediaSum = 0;
        /** Sum of per-window PCIe durations. */
        aqua::sim::Tick pcieSum = 0;
        bool started = false;
        bool cancelled = false;
        DoneCallback onDone;
    };

    /** Issue the next window of @p id (or wind the stream down). */
    void issueWindow(StreamId id);
    void finishStream(StreamId id, bool cancelled);

    hw::Server &server;
    hw::GpuId gpu;
    /** Per-bounce-buffer reuse horizon. */
    std::vector<aqua::sim::Tick> bufFree;
    std::map<StreamId, Stream> streams;
    StreamId nextStream = 1;
    PrefetchStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_PREFETCH_HH
