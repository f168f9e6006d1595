/**
 * @file
 * SsdTier: the storage tier below host DRAM.
 *
 * One class owns everything under DRAM: the SsdBackend that holds
 * parked and demoted payloads, the TransferPlan that streams parked
 * KV back SSD→DRAM→HBM behind the decode compute, the demotion
 * table of swapped-out tails sitting in DRAM, and one record per
 * parked session. SwapStore calls it directly.
 *
 * Two policies live here. Demotion scores each DRAM tail by its age
 * since it was last offloaded and moves the oldest down one tier per
 * settle pass. Resume streams a parked session back only past the
 * crossover where the transfer (behind compute) is cheaper than
 * recomputing the KV — and never when the device is failed or the
 * estimate is inflated by degradation.
 */

#ifndef AQUA_SERVE_SSD_TIER_HH
#define AQUA_SERVE_SSD_TIER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "hw/server.hh"
#include "model/kv_precision.hh"
#include "serve/ssd_backend.hh"
#include "serve/transfer_plan.hh"
#include "sim/ticks.hh"

namespace aqua::serve {

/** SsdTier tunables. */
struct SsdTierConfig
{
    /** Age past which an untouched DRAM tail demotes to SSD; also the
     *  idle gap past which a finished session parks. */
    double parkAfterSec = 30.0;
    /**
     * Demotion age under memory pressure (the brownout ladder's
     * ForceDramOffload rung): the tier drains DRAM aggressively so
     * the rung has somewhere real to demote into.
     */
    double pressureParkAfterSec = 2.0;
    /**
     * Streaming must beat recompute by this factor before a resume
     * is serviced from SSD (hedge against estimate error).
     */
    double resumeSafetyFactor = 1.1;
};

/**
 * SSD-backed cold-session park/resume plus DRAM→SSD demotion of
 * swapped-out KV.
 */
class SsdTier
{
  public:
    /** Resume outcome: streamed = the KV landed in HBM via the
     *  transfer plan; false = the stream was cancelled or the
     *  device failed and the engine must re-prefill. */
    using ResumeCallback = std::function<void(bool streamed)>;

    /** Demotion budget per settle pass (bounds media churn). */
    static constexpr std::size_t maxDemotionsPerSettle = 4;

    /** A parked session's KV on the media. */
    struct Parked
    {
        OffloadBackend::Handle handle;
        /** Tokens the KV covers. */
        std::uint32_t tokens = 0;
        /** Precision the copy was stored at. */
        model::KvPrecision precision = model::KvPrecision::Fp16;
        /** Resume stream in flight (0 = none). */
        TransferPlan::StreamId stream = 0;
    };

    /** Parked and demoted payloads still on the media at teardown
     *  are freed with the backend. */
    SsdTier(hw::Server &server, hw::GpuId gpu, SsdTierConfig config = {});

    SsdTier(const SsdTier &) = delete;
    SsdTier &operator=(const SsdTier &) = delete;

    //
    // Cold-session park/resume.
    //

    /**
     * A session just finished a turn and its user goes idle for
     * @p idleGapSec. Park the KV if the gap warrants it; a fresher
     * turn supersedes any earlier parked copy.
     *
     * @param sessionKey Stable session identity (the chat user id).
     * @param bytes KV footprint as stored (at @p precision).
     * @param tokens Tokens that KV covers (prompt + generated).
     * @retval true Parked (the bytes were copied down).
     * @retval false Gap below the park threshold, drive failed or
     *         store full.
     */
    bool park(std::uint64_t sessionKey, std::uint64_t bytes,
              std::uint32_t tokens, model::KvPrecision precision,
              double idleGapSec, aqua::sim::Tick now);

    /** A session's parked record; nullptr = nothing parked. Valid
     *  until the next call that parks, resumes or drops a session. */
    const Parked *parked(std::uint64_t sessionKey) const;

    /**
     * A cold session's next turn arrived: decide stream-vs-recompute
     * against @p prefillTime (the roofline cost of re-prefilling the
     * parked context) and start the prefetch stream if it wins.
     *
     * @param streamOverhead Extra compute the streamed copy costs
     *        before it is usable (e.g. dequantizing a parked copy
     *        stored below the serving precision); counts against
     *        streaming in the crossover.
     * @return The stream on plan(), which @p done reports on when it
     *         lands (or winds down cancelled); the parked entry is
     *         consumed. 0 = recompute: nothing parked, a stream
     *         already in flight, or the stream loses the crossover
     *         (the parked entry is then dropped); @p done never fires.
     */
    TransferPlan::StreamId
    beginResume(std::uint64_t sessionKey, aqua::sim::Tick now,
                aqua::sim::Tick prefillTime, ResumeCallback done,
                aqua::sim::Tick streamOverhead = 0);

    /**
     * Predictor miss: the resuming request was shed (or the session
     * ended). Cancels any in-flight resume stream and drops the
     * parked entry.
     */
    void cancelResume(std::uint64_t sessionKey);

    /**
     * Stream-vs-recompute crossover: stream when the device is
     * healthy and (streamEstimate + streamOverhead) *
     * resumeSafetyFactor beats the roofline prefill time.
     */
    bool streamWins(aqua::sim::Tick streamEstimate,
                    aqua::sim::Tick prefillTime,
                    aqua::sim::Tick streamOverhead = 0) const;

    //
    // DRAM→SSD demotion of swapped-out KV.
    //

    /** Holds demoted payloads; sequences swap back in from it through
     *  the normal OffloadBackend read path. */
    SsdBackend &backend() { return store; }

    /** A swapped sequence's private KV tail landed in host DRAM (a
     *  tail already tracked restarts its age). */
    void
    noteOffloaded(std::uint64_t key, aqua::sim::Tick now)
    {
        demotable[key] = now;
    }

    /** The tail left DRAM (swap-in, or the sequence moved on). */
    void forgetOffloaded(std::uint64_t key) { demotable.erase(key); }

    /** Up to maxDemotionsPerSettle tracked tails whose age exceeds
     *  the threshold (pressureParkAfterSec when @p pressure, else
     *  parkAfterSec), oldest first. */
    std::vector<std::uint64_t>
    selectDemotions(aqua::sim::Tick now, bool pressure) const;

    /**
     * Move @p handle's bytes (resident in @p from, a DRAM-class
     * backend) onto the media. On success the old handle is freed,
     * @p key leaves the demotion table, and the replacement — owned
     * by backend() — is returned. nullopt = drive failed or full; the
     * payload stays in DRAM and stays tracked.
     */
    std::optional<OffloadBackend::Handle>
    demote(std::uint64_t key, OffloadBackend &from,
           const OffloadBackend::Handle &handle, std::uint64_t nChunks,
           aqua::sim::Tick now);

    //
    // Introspection.
    //

    /** Carries the resume streams. */
    TransferPlan &plan() { return resumes; }
    /** Sessions currently parked on the SSD. */
    std::size_t parkedCount() const { return sessions.size(); }
    /** Bytes those sessions hold on the media. */
    std::uint64_t parkedBytes() const;
    /** DRAM tails the demotion policy is watching. */
    std::size_t trackedCount() const { return demotable.size(); }

  private:
    /** Free a parked entry's storage. */
    void dropParked(std::uint64_t sessionKey);

    hw::Server &server;
    SsdTierConfig cfg;
    SsdBackend store;
    TransferPlan resumes;
    /** SSD → DRAM → this tier's GPU. */
    TransferPlan::Route resumeRoute;
    /** Swapped tails in DRAM, by key, with when each last landed. */
    std::map<std::uint64_t, aqua::sim::Tick> demotable;
    std::map<std::uint64_t, Parked> sessions;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_SSD_TIER_HH
