/**
 * @file
 * TransferPlan: every KV stream that lands in a waiting sequence,
 * windowed, overlapped and cancellable — the StagingEngine's double
 * buffering generalized across tiers and servers.
 *
 * A stream moves a payload over a route of up to three hops in
 * fixed-size windows, with bounce buffers between hops: window N
 * drains through the later hops while window N+1 is already on the
 * first. Two routes use it. A parked-session resume reads the media
 * into DRAM and copies DRAM → HBM; the media (≈7 GB/s) is slower than
 * PCIe (≈25 GB/s), so the PCIe time hides behind it. A federation
 * fetch copies home GPU → DRAM, crosses the fabric wire, and copies
 * DRAM → consumer GPU.
 *
 * Each window is issued from an event when the previous window's
 * first hop completes, which is what makes cancellation real: when
 * the request sheds (or the engine recomputes after all), the
 * remaining windows are never issued. Windows already in flight
 * complete and their bytes are charged as waste. A hop whose drive or
 * GPU has failed winds the stream down the same way.
 */

#ifndef AQUA_SERVE_TRANSFER_PLAN_HH
#define AQUA_SERVE_TRANSFER_PLAN_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "hw/fabric.hh"
#include "hw/server.hh"
#include "sim/ticks.hh"
#include "stats/summary.hh"

namespace aqua::serve {

/** Aggregate stream accounting of one TransferPlan. */
struct PrefetchStats
{
    std::uint64_t streamsStarted = 0;
    std::uint64_t streamsCompleted = 0;
    std::uint64_t streamsCancelled = 0;
    std::uint64_t windowsIssued = 0;
    /** Windows skipped because their stream was cancelled. */
    std::uint64_t windowsCancelled = 0;
    /** Payload delivered by completed streams. */
    std::uint64_t bytesStreamed = 0;
    /** Bytes issued on behalf of streams that were then cancelled. */
    std::uint64_t bytesWasted = 0;
    /** Per-completed-stream overlap efficiency (Done). */
    aqua::stats::Summary overlapEfficiency;
};

/** Windowed multi-hop streamer with cancellation. */
class TransferPlan
{
  public:
    using StreamId = std::uint64_t;

    /**
     * One hop: Media reads topology's SSD into DRAM; Copy is
     * topology's PCIe copy from src to dst (one of them host DRAM);
     * Wire is fabric's transfer from fromServer to toServer.
     */
    struct Hop
    {
        enum class Kind : std::uint8_t { Media, Copy, Wire };
        Kind kind = Kind::Copy;
        hw::Topology *topology = nullptr;
        hw::GpuId src = hw::hostDramId;
        hw::GpuId dst = hw::hostDramId;
        hw::Fabric *fabric = nullptr;
        std::size_t fromServer = 0;
        std::size_t toServer = 0;
    };

    /** Up to three hops, first to last. */
    struct Route
    {
        std::array<Hop, 3> hops{};
        std::size_t size = 0;
    };

    /** Parked-session resume: media read, then DRAM → @p gpu. */
    static Route ssdRoute(hw::Server &server, hw::GpuId gpu);

    /** Federation fetch: @p homeGpu → DRAM on server @p home, the
     *  wire, DRAM → @p gpu on server @p consumer (both topologies
     *  attached to @p fabric). */
    static Route fabricRoute(hw::Fabric &fabric, std::size_t home,
                             hw::GpuId homeGpu, std::size_t consumer,
                             hw::GpuId gpu);

    /** Completion report for one stream. */
    struct Done
    {
        /** First window's issue tick. */
        aqua::sim::Tick start = 0;
        /** Last byte landed (or cancellation point). */
        aqua::sim::Tick complete = 0;
        /** Payload delivered (issued windows only, if cancelled). */
        std::uint64_t bytes = 0;
        /** (Σ hop time − makespan) / (Σ hop time − the longest hop's
         *  total), capped at 1: 0 = serial, 1 = every hop but the
         *  longest hidden behind it. */
        double overlapEfficiency = 0.0;
        bool cancelled = false;
    };

    using DoneCallback = std::function<void(const Done &)>;

    /** Sliding-window transfer size. */
    static constexpr std::uint64_t windowBytes = std::uint64_t(32) << 20;

    /** @param buffers Bounce buffers between each pair of hops, per
     *  stream: two double-buffer, one serializes the hops. */
    explicit TransferPlan(aqua::sim::Simulation &sim,
                          std::uint32_t buffers = 2);

    TransferPlan(const TransferPlan &) = delete;
    TransferPlan &operator=(const TransferPlan &) = delete;

    const PrefetchStats &stats() const { return counters; }

    /**
     * Stream @p bytes (> 0) over @p route, touching the first hop no
     * earlier than @p earliest. @p onDone runs once, when the last
     * window lands or the stream winds down cancelled.
     */
    StreamId start(const Route &route, std::uint64_t bytes,
                   aqua::sim::Tick earliest, DoneCallback onDone = {});

    /**
     * Stop issuing windows for @p id; windows in flight complete.
     * @return false for an unknown, finished or already-cancelled
     *         stream; otherwise its onDone fires with cancelled set.
     */
    bool cancel(StreamId id);

    /** Whether a stream is still in flight. */
    bool active(StreamId id) const;

    /**
     * Pure idle-path makespan of @p bytes over @p route, for the
     * stream-vs-recompute checks: the longest path through the
     * (window, hop) grid of pure hop durations at the current
     * degradation, where hop j of window N follows hop j-1 of window
     * N, hop j of window N-1, and the drain of the buffer it reuses.
     */
    aqua::sim::Tick estimate(const Route &route,
                             std::uint64_t bytes) const;

  private:
    struct Stream
    {
        Route route;
        std::uint64_t remaining = 0;
        std::uint64_t delivered = 0;
        std::uint32_t windows = 0;
        aqua::sim::Tick start = 0;
        aqua::sim::Tick lastComplete = 0;
        /** Per hop, the sum of its pure window durations. */
        std::array<aqua::sim::Tick, 3> hopTime{};
        /** When buffer b after hop j is free, at [j * buffers + b]. */
        std::vector<aqua::sim::Tick> bufFree;
        bool cancelled = false;
        DoneCallback onDone;
    };

    /** Issue the next window of @p id (or wind the stream down). */
    void issueWindow(StreamId id);
    void finishStream(StreamId id, bool cancelled);

    aqua::sim::Simulation &sim;
    std::uint32_t buffers;
    std::map<StreamId, Stream> streams;
    StreamId nextStream = 1;
    PrefetchStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_TRANSFER_PLAN_HH
