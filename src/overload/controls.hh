/**
 * @file
 * One owner for a serving engine's overload control: deadline-aware
 * admission, the brownout ladder and the cold-KV precision governor.
 *
 * Each controller is optional and built from its own config. Once per
 * step (and at each arrival, for the fast-fail at the door) the engine
 * hands Controls a snapshot of its queues; Controls advances the ladder
 * and the governor from it and answers every verdict the engine acts
 * on. It also keeps the shed counts and "shed" trace events. With
 * nothing configured every verdict is the unloaded one, and Controls
 * allocates nothing and makes no virtual call.
 */

#ifndef AQUA_OVERLOAD_CONTROLS_HH
#define AQUA_OVERLOAD_CONTROLS_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "model/perf_model.hh"
#include "overload/admission.hh"
#include "overload/brownout.hh"
#include "overload/kv_precision_governor.hh"
#include "trace/trace.hh"
#include "workload/request.hh"

namespace aqua::overload {

/** Which controllers run, each with its tunables (nullopt = off):
 *  deadline-aware admission, the brownout ladder, and the governor
 *  that quantizes cold KV under memory pressure. */
struct ControlsConfig
{
    std::optional<AdmissionConfig> admission;
    std::optional<BrownoutConfig> brownout;
    std::optional<KvPrecisionGovernorConfig> precisionGovernor;
};

/** The engine's queues and offload-path state at one instant. */
struct QueueSnapshot
{
    aqua::sim::Tick now = 0;
    std::size_t waiting = 0;
    std::size_t swapped = 0;
    /** Age of the oldest waiting request, seconds. */
    double oldestWaitSec = 0.0;
    /** Free + evictable fraction of the KV pool. */
    double freePoolFraction = 1.0;
    /** This GPU is reclaiming its own lease (producer role). */
    bool reclaiming = false;
    /** The backend's last reclaim-driven evacuation (0 = never). */
    aqua::sim::Tick lastEvacuation = 0;
    /** NVLink health, 1.0 = full bandwidth. */
    double linkHealth = 1.0;
};

/** Overload control for one serving engine. */
class Controls
{
  public:
    Controls() = default;

    /** Build the configured controllers; admission's service rates
     *  and the serving precision come from @p perf, a batch of
     *  @p maxBatch and a pool of @p poolBytes. */
    Controls(const ControlsConfig &config, const model::PerfModel &perf,
             std::size_t maxBatch, std::uint64_t poolBytes);

    /** Trace "shed", "brownout_level" and "kv_precision" events into
     *  @p log (non-owning; null disables). */
    void setTraceLog(trace::TraceLog *log);

    /** Verdict for a new arrival, after advancing the ladder and the
     *  governor from @p snapshot() (None, and no snapshot, without a
     *  ladder): refusing at the door is cheaper than queueing a
     *  request the ladder sheds at its first scheduling pass. */
    template <typename SnapshotFn>
    ShedReason
    atArrival(bool bestEffort, SnapshotFn &&snapshot)
    {
        if (!ladder)
            return ShedReason::None;
        advance(snapshot());
        if (level() >= BrownoutLevel::RejectNew)
            return ShedReason::BrownoutReject;
        if (bestEffort && level() >= BrownoutLevel::ShedBestEffort)
            return ShedReason::BrownoutBestEffort;
        return ShedReason::None;
    }

    /** Advance the ladder and the governor before a scheduling pass;
     *  @p snapshot is only called when one of them runs. */
    template <typename SnapshotFn>
    void
    atStep(SnapshotFn &&snapshot)
    {
        if (ladder || governor)
            advance(snapshot());
    }

    /** Ladder level; the scheduler's admission pre-pass honours it. */
    BrownoutLevel
    level() const
    {
        return ladder ? ladder->level() : BrownoutLevel::Normal;
    }

    /** Whether computed KV may be published to the prefix cache. */
    bool
    publishAllowed() const
    {
        return level() < BrownoutLevel::NoCachePublish;
    }

    /** Circuit breaker: swaps divert to the fallback backend, and
     *  the tier drains DRAM under pressure. */
    bool
    divertSwaps() const
    {
        return level() >= BrownoutLevel::ForceDramOffload;
    }

    /** Precision KV leaving HBM is quantized to right now. */
    model::KvPrecision
    coldPrecision() const
    {
        return governor ? governor->coldPrecision() : serving;
    }

    /** CFS slice of @p baseTokens after brownout shrinking. */
    std::uint32_t sliceTokens(std::uint32_t baseTokens) const;

    /** A request was admitted for the first time. */
    void
    recordAdmit()
    {
        if (admit)
            admit->recordAdmit();
    }

    /** A request finished at @p finish against @p deadline. */
    void
    recordCompletion(aqua::sim::Tick finish, aqua::sim::Tick deadline)
    {
        if (admit)
            admit->recordCompletion(finish, deadline);
    }

    /** The engine dropped @p request unserved at @p when. */
    void recordShed(const workload::Request &request, ShedReason reason,
                    aqua::sim::Tick when);

    /** A swap or park payload left HBM (governor feedback). */
    void
    notePayload(std::uint64_t servingBytes, std::uint64_t storedBytes)
    {
        if (governor)
            governor->notePayload(servingBytes, storedBytes);
    }

    /** Sheds since the last call (the informer's backpressure). */
    std::uint64_t
    takeShedsSinceInform()
    {
        return std::exchange(shedsSinceInform, 0);
    }

    /** Requests shed by admission control or brownout. */
    std::uint64_t shedCount() const { return sheds; }

    // The configured controllers (null when off).
    const AdmissionController *
    admissionController() const
    {
        return admit ? &*admit : nullptr;
    }
    const BrownoutController *
    brownoutController() const
    {
        return ladder ? &*ladder : nullptr;
    }
    const KvPrecisionGovernor *
    precisionGovernor() const
    {
        return governor ? &*governor : nullptr;
    }

  private:
    /** Feed one snapshot to the ladder, then the governor. */
    void advance(const QueueSnapshot &q);

    std::optional<AdmissionController> admit;
    std::optional<BrownoutController> ladder;
    std::optional<KvPrecisionGovernor> governor;
    model::KvPrecision serving = model::KvPrecision::Fp16;
    trace::TraceLog *tracer = nullptr;
    std::uint64_t sheds = 0;
    std::uint64_t shedsSinceInform = 0;
};

} // namespace aqua::overload

#endif // AQUA_OVERLOAD_CONTROLS_HH
