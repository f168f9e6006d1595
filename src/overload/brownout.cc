#include "overload/brownout.hh"

#include <algorithm>
#include <cmath>

namespace aqua::overload {

const char *
brownoutLevelName(BrownoutLevel level)
{
    switch (level) {
    case BrownoutLevel::Normal:
        return "normal";
    case BrownoutLevel::ShedBestEffort:
        return "shed_best_effort";
    case BrownoutLevel::NoCachePublish:
        return "no_cache_publish";
    case BrownoutLevel::ForceDramOffload:
        return "force_dram_offload";
    case BrownoutLevel::RejectNew:
        return "reject_new";
    }
    return "unknown";
}

BrownoutController::BrownoutController(BrownoutConfig config)
    : cfg(config)
{
}

BrownoutLevel
BrownoutController::targetLevel(const BrownoutSignals &s) const
{
    bool queuePressure = s.queueDepth >= cfg.queueHigh ||
                         s.queueDelaySec >= cfg.delayHighSec;
    bool memPressure = s.freePoolFraction <= cfg.freeLow;
    bool pathPressure =
        s.reclaimPressure || s.linkHealth <= cfg.linkHealthLow;

    // A full KV pool and a busy offload path are normal steady state
    // for an offloaded engine; neither alone is overload. Degradation
    // starts only once the admission queue itself hurts — memory and
    // path pressure then deepen the response.
    if (!queuePressure)
        return BrownoutLevel::Normal;

    auto lvl = BrownoutLevel::ShedBestEffort;
    if (memPressure)
        lvl = BrownoutLevel::NoCachePublish;
    if (pathPressure)
        lvl = BrownoutLevel::ForceDramOffload;

    // Last rung only under compound pressure: the queue is deep AND
    // either memory is exhausted or the oldest waiter is far past the
    // high-water delay. A single signal never refuses admissions.
    bool deepQueue = s.queueDepth >= 2 * cfg.queueHigh;
    bool staleQueue = s.queueDelaySec >= 2 * cfg.delayHighSec;
    if ((deepQueue && (memPressure || staleQueue)) ||
        (memPressure && pathPressure))
        lvl = BrownoutLevel::RejectNew;
    return lvl;
}

bool
BrownoutController::calm(const BrownoutSignals &s) const
{
    // The queue must be under its low-water marks; a pressured offload
    // path additionally holds the circuit breaker open (keep diverting
    // swaps while the donor reclaims or the link is degraded). Only
    // the breaker's own rung is held: RejectNew still steps down to
    // it, or a pressured path would refuse every arrival with an
    // empty queue. The free-pool fraction does not gate recovery: it
    // legitimately stays low for the lifetime of a busy engine.
    if (s.queueDepth > cfg.queueLow ||
        s.queueDelaySec > cfg.delayLowSec)
        return false;
    if (current == BrownoutLevel::ForceDramOffload &&
        (s.reclaimPressure || s.linkHealth <= cfg.linkHealthLow))
        return false;
    return true;
}

void
BrownoutController::transitionTo(BrownoutLevel next,
                                 const BrownoutSignals &s,
                                 const char *reason)
{
    auto idx = static_cast<std::size_t>(current);
    counters.ticksAtLevel[idx] += s.now - enteredAt;
    ++counters.transitions;
    if (next > current)
        ++counters.escalations;
    if (tracer) {
        json::Object o;
        o["from"] = std::string(brownoutLevelName(current));
        o["to"] = std::string(brownoutLevelName(next));
        o["reason"] = std::string(reason);
        o["queue_depth"] = static_cast<std::int64_t>(s.queueDepth);
        o["queue_delay_sec"] = s.queueDelaySec;
        o["free_pool_fraction"] = s.freePoolFraction;
        o["reclaim_pressure"] = s.reclaimPressure;
        o["link_health"] = s.linkHealth;
        tracer->emit(s.now, "brownout_level", json::Value(std::move(o)));
    }
    current = next;
    enteredAt = s.now;
}

BrownoutLevel
BrownoutController::update(const BrownoutSignals &s)
{
    BrownoutLevel target = targetLevel(s);
    bool dwelled = s.now - enteredAt >= cfg.minDwell;

    if (target > current) {
        // Escalate immediately — reacting late to overload is how
        // queues (and deadline misses) compound.
        transitionTo(target, s, "escalate");
    } else if (current > BrownoutLevel::Normal && dwelled &&
               target < current && calm(s)) {
        // Step down one rung at a time, and only once every signal is
        // below its low-water mark for a full dwell: the gap between
        // the high and low marks is the hysteresis band.
        auto next = static_cast<BrownoutLevel>(
            static_cast<std::uint8_t>(current) - 1);
        transitionTo(next, s, "recover");
    }
    return current;
}

double
BrownoutController::sliceFactor() const
{
    return std::pow(cfg.sliceScale,
                    static_cast<double>(
                        static_cast<std::uint8_t>(current)));
}

aqua::sim::Tick
BrownoutController::timeAtLevel(BrownoutLevel level,
                                aqua::sim::Tick now) const
{
    auto idx = static_cast<std::size_t>(level);
    aqua::sim::Tick t = counters.ticksAtLevel[idx];
    if (level == current && now > enteredAt)
        t += now - enteredAt;
    return t;
}

} // namespace aqua::overload
