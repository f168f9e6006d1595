#include "overload/controls.hh"

#include <algorithm>
#include <string>

namespace aqua::overload {

Controls::Controls(const ControlsConfig &config,
                   const model::PerfModel &perf, std::size_t maxBatch,
                   std::uint64_t poolBytes)
    : serving(perf.model().kvPrecision)
{
    if (config.admission) {
        // Service rates from the perf model: amortized prefill cost
        // per token, and a decode iteration at full batch with a
        // half-full pool as the representative per-token-per-seat
        // decode time.
        ServiceRates rates;
        rates.prefillPerToken = perf.prefillTime(1024) / 1024;
        rates.decodePerToken = perf.decodeStepTime(maxBatch, poolBytes / 2);
        admit.emplace(rates, *config.admission);
    }
    if (config.brownout)
        ladder.emplace(*config.brownout);
    if (config.precisionGovernor)
        governor.emplace(*config.precisionGovernor, serving);
}

void
Controls::setTraceLog(trace::TraceLog *log)
{
    tracer = log;
    if (ladder)
        ladder->setTraceLog(log);
    if (governor)
        governor->setTraceLog(log);
}

void
Controls::advance(const QueueSnapshot &q)
{
    if (ladder) {
        BrownoutSignals sig;
        sig.now = q.now;
        // Under CFS, overload shows up as a growing swapped set
        // time-sharing the batch, not in the waiting queue: both are
        // queued work awaiting GPU service.
        sig.queueDepth = q.waiting + q.swapped;
        sig.queueDelaySec = q.oldestWaitSec;
        sig.freePoolFraction = q.freePoolFraction;
        // Offload-path pressure: this GPU is reclaiming its own lease
        // (producer role), or the backend recently executed a
        // reclaim-driven evacuation off the donor (consumer role).
        bool recentEvac =
            q.lastEvacuation != 0 &&
            q.now < q.lastEvacuation + ladder->config().evacPressureWindow;
        sig.reclaimPressure = q.reclaiming || recentEvac;
        sig.linkHealth = q.linkHealth;
        ladder->update(sig);
    }
    // The precision governor reads the same pressure view: quantize
    // cold KV harder as the pool empties or the ladder climbs.
    if (governor)
        governor->update(q.freePoolFraction, level(), q.now);
}

std::uint32_t
Controls::sliceTokens(std::uint32_t baseTokens) const
{
    if (!ladder)
        return baseTokens;
    auto t = static_cast<std::uint32_t>(static_cast<double>(baseTokens) *
                                        ladder->sliceFactor());
    return std::max<std::uint32_t>(t, 1);
}

void
Controls::recordShed(const workload::Request &request, ShedReason reason,
                     aqua::sim::Tick when)
{
    ++sheds;
    ++shedsSinceInform;
    if (admit)
        admit->recordShed(reason);
    if (tracer) {
        json::Value f;
        f["request"] = static_cast<std::int64_t>(request.id);
        f["reason"] = std::string(shedReasonName(reason));
        f["deadline_ns"] = static_cast<std::int64_t>(request.deadline);
        f["waited_sec"] = aqua::sim::ticksToSec(when - request.arrival);
        f["best_effort"] = request.bestEffort;
        tracer->emit(when, "shed", std::move(f));
    }
}

} // namespace aqua::overload
