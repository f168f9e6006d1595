#include "serve/scheduler.hh"

#include <algorithm>

#include "serve/prefix_index.hh"

namespace aqua::serve {

namespace {

/**
 * Blocks a sequence needs on top of what the prefix cache already
 * holds: with caching on, probe the index and discount the matched
 * full blocks (shared blocks cost nothing extra to admit).
 */
std::size_t
incrementalNeed(const SchedulerInput &in, const Sequence *s,
                std::uint64_t extraTokens)
{
    std::size_t need =
        in.kv->blocksForTokens(s->kvTokens() + extraTokens);
    if (!in.prefixCache)
        return need;
    std::uint64_t match = s->kvTokens() > 0 ? s->kvTokens() - 1 : 0;
    std::size_t cached = in.kv->probePrefixBlocks(s->chain, match);
    return need - std::min(need, cached);
}

/**
 * Admission pre-pass shared by all policies: assess every waiting
 * sequence in queue order, move the hopeless ones to d.shed and
 * return the viable remainder, collected in @p buf. Requests queued
 * ahead count toward a later request's predicted start, so a deep
 * queue sheds from the tail first — exactly the arrivals whose
 * deadlines the queue has already eaten. With admission control off
 * every waiting sequence is viable and the queue view is returned
 * as is.
 */
std::span<Sequence *const>
assessWaiting(const SchedulerInput &in, SchedulerDecision &d,
              std::vector<Sequence *> &buf)
{
    if (!in.admission)
        return in.waiting;
    buf.clear();
    std::uint64_t aheadPrefill = 0;
    for (Sequence *s : in.waiting) {
        overload::AdmissionQuery q;
        q.now = in.now;
        q.requestId = s->request.id;
        q.deadline = s->request.deadline;
        q.bestEffort = s->request.bestEffort;
        // kvTokens() - prefilledTokens so recompute-preempted
        // sequences count their whole regenerated context.
        q.promptTokens = static_cast<std::uint32_t>(
            s->kvTokens() - s->prefilledTokens);
        q.remainingNewTokens =
            s->request.maxNewTokens > s->generated
                ? s->request.maxNewTokens - s->generated
                : 0;
        q.queuedPrefillTokensAhead = aheadPrefill;
        q.runningCount = in.running.size() + in.swapped.size();
        q.maxBatch = in.maxBatch;
        overload::ShedReason verdict =
            in.admission->assess(q, in.brownoutLevel);
        if (verdict != overload::ShedReason::None) {
            d.shed.emplace_back(s, verdict);
            continue;
        }
        aheadPrefill += q.promptTokens;
        buf.push_back(s);
    }
    return buf;
}

} // anonymous namespace

SchedulerDecision
FcfsPolicy::schedule(const SchedulerInput &in)
{
    SchedulerDecision d;
    std::span<Sequence *const> viable = assessWaiting(in, d, viableBuf);
    std::size_t batch_room =
        in.running.size() < in.maxBatch ? in.maxBatch - in.running.size()
                                        : 0;
    // availableBlocks() folds in cache-evictable blocks; identical to
    // freeBlocks() when prefix caching is off.
    std::size_t free_blocks = in.kv->availableBlocks();

    // Resume preempted sequences first (they hold admission priority
    // in vLLM); do not admit new work while any remain swapped.
    for (Sequence *s : in.swapped) {
        if (batch_room == 0)
            break;
        std::size_t need =
            in.kv->blocksForTokens(s->kvTokens() + in.slackTokens);
        if (need > free_blocks)
            break;
        d.swapIn.push_back(s);
        free_blocks -= need;
        --batch_room;
    }
    if (!in.swapped.empty() && d.swapIn.size() < in.swapped.size())
        return d;

    for (Sequence *s : viable) {
        if (batch_room == 0)
            break;
        // kvTokens() covers recompute-preempted sequences, whose
        // regenerated context spans prompt plus generated tokens.
        std::size_t need = incrementalNeed(in, s, in.slackTokens);
        if (need > free_blocks)
            break; // FIFO: later arrivals wait behind the blocked head
        d.admit.push_back(s);
        free_blocks -= need;
        --batch_room;
    }
    return d;
}

SchedulerDecision
CfsPolicy::schedule(const SchedulerInput &in)
{
    SchedulerDecision d;
    std::span<Sequence *const> viable = assessWaiting(in, d, viableBuf);

    // All live sequences compete; vruntime is tokens generated, ties
    // broken by arrival so earlier prompts keep their edge, then by
    // position (running, swapped, viable) as a stable sort would.
    keys.clear();
    auto addKeys = [&](std::span<Sequence *const> list) {
        for (Sequence *s : list) {
            keys.push_back({s->request.arrival, s, s->generated,
                            static_cast<std::uint32_t>(keys.size())});
        }
    };
    addKeys(in.running);
    addKeys(in.swapped);
    addKeys(viable);
    std::sort(keys.begin(), keys.end(), [](const Key &a, const Key &b) {
        if (a.generated != b.generated)
            return a.generated < b.generated;
        if (a.arrival != b.arrival)
            return a.arrival < b.arrival;
        return a.pos < b.pos;
    });

    // Fill the slice: least-served first while blocks last. Every
    // selected sequence needs room for its KV plus slice growth;
    // waiting sequences get their cached prefix discounted.
    std::size_t budget = in.kv->totalBlocks();
    std::size_t selected = 0;
    std::size_t scanned = 0;
    chosen.assign(keys.size(), 0);
    for (; scanned < keys.size(); ++scanned) {
        if (selected >= in.maxBatch)
            break;
        const Sequence *s = keys[scanned].seq;
        std::size_t need =
            s->state == Sequence::State::Waiting
                ? incrementalNeed(in, s, in.sliceTokens)
                : in.kv->blocksForTokens(s->kvTokens() + in.sliceTokens);
        if (need > budget)
            continue; // try a smaller sequence; fairness over packing
        budget -= need;
        chosen[keys[scanned].pos] = 1;
        ++selected;
    }

    // Running sequences hold positions [0, running.size()).
    for (std::size_t i = 0; i < in.running.size(); ++i) {
        if (!chosen[i])
            d.swapOut.push_back(in.running[i]);
    }
    // Selection order is the sorted order of the chosen keys.
    for (std::size_t k = 0; k < scanned; ++k) {
        if (!chosen[keys[k].pos])
            continue;
        Sequence *s = keys[k].seq;
        if (s->state == Sequence::State::Swapped)
            d.swapIn.push_back(s);
        else if (s->state == Sequence::State::Waiting)
            d.admit.push_back(s);
    }
    return d;
}

} // namespace aqua::serve
