#include "overload/admission.hh"

#include <algorithm>
#include <cmath>

namespace aqua::overload {

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
    case ShedReason::None:
        return "none";
    case ShedReason::DeadlineUnmeetable:
        return "deadline_unmeetable";
    case ShedReason::BrownoutBestEffort:
        return "brownout_best_effort";
    case ShedReason::BrownoutReject:
        return "brownout_reject";
    }
    return "unknown";
}

AdmissionController::AdmissionController(ServiceRates rates,
                                         AdmissionConfig config)
    : svc(rates), cfg(config)
{
}

aqua::sim::Tick
AdmissionController::predictCompletion(const AdmissionQuery &q) const
{
    // Queued prompts ahead prefill first (prefill is prioritised over
    // decode), then our own prefill, then decode. Decode iterations
    // hand one token to each resident sequence, so with more live
    // sequences than batch slots a request only advances on a
    // maxBatch/live share of iterations.
    double live = double(q.runningCount) + 1.0;
    double share =
        std::max(1.0, live / double(std::max<std::size_t>(q.maxBatch, 1)));
    double service =
        double(q.queuedPrefillTokensAhead + q.promptTokens) *
            double(svc.prefillPerToken) +
        double(q.remainingNewTokens) * double(svc.decodePerToken) *
            share;
    service *= cfg.safetyFactor;
    return q.now + static_cast<aqua::sim::Tick>(service);
}

ShedReason
AdmissionController::assess(const AdmissionQuery &q,
                            BrownoutLevel level) const
{
    if (level >= BrownoutLevel::RejectNew)
        return ShedReason::BrownoutReject;
    if (q.bestEffort && level >= BrownoutLevel::ShedBestEffort)
        return ShedReason::BrownoutBestEffort;
    if (q.deadline != 0) {
        if (q.now >= q.deadline ||
            predictCompletion(q) > q.deadline)
            return ShedReason::DeadlineUnmeetable;
    }
    return ShedReason::None;
}

void
AdmissionController::recordShed(ShedReason reason)
{
    switch (reason) {
    case ShedReason::None:
        break;
    case ShedReason::DeadlineUnmeetable:
        ++counters.shedDeadline;
        break;
    case ShedReason::BrownoutBestEffort:
        ++counters.shedBestEffort;
        break;
    case ShedReason::BrownoutReject:
        ++counters.shedReject;
        break;
    }
}

void
AdmissionController::recordCompletion(aqua::sim::Tick finish,
                                      aqua::sim::Tick deadline)
{
    if (deadline != 0 && finish > deadline)
        ++counters.deadlineMissed;
    else
        ++counters.deadlineMet;
}

double
AdmissionController::attainment() const
{
    std::uint64_t done = counters.deadlineMet + counters.deadlineMissed;
    return done == 0 ? 1.0
                     : double(counters.deadlineMet) / double(done);
}

} // namespace aqua::overload
