/**
 * @file
 * Iteration-level scheduling policies for LLM serving engines.
 *
 *  - FcfsPolicy reproduces vLLM's default continuous batching: admit
 *    new sequences only when their context fits in GPU memory; later
 *    arrivals queue (and starve under bursts — Fig. 1, Fig. 9).
 *  - CfsPolicy is the paper's completely fair scheduler (§5): the
 *    vruntime is tokens generated; every slice of k tokens the least-
 *    served sequences get the GPU, and context switches page KV
 *    caches through the offload backend.
 */

#ifndef AQUA_SERVE_SCHEDULER_HH
#define AQUA_SERVE_SCHEDULER_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "overload/admission.hh"
#include "serve/kv_cache.hh"
#include "serve/sequence.hh"

namespace aqua::serve {

/**
 * What the engine shows the policy. The queues are views of the
 * engine's own lists, valid for the duration of one schedule() call.
 */
struct SchedulerInput
{
    /** Arrival order. */
    std::span<Sequence *const> waiting;
    std::span<Sequence *const> running;
    /** Preemption order (oldest first). */
    std::span<Sequence *const> swapped;
    const KvCache *kv = nullptr;
    std::uint32_t maxBatch = 0;
    /** CFS slice length in tokens. */
    std::uint32_t sliceTokens = 0;
    /** Admission slack in tokens beyond the prompt. */
    std::uint32_t slackTokens = 0;
    /**
     * Prefix caching enabled: a waiting sequence's incremental cost
     * is its unshared blocks only (cached prefix blocks are probed
     * and discounted), and index-held blocks count as free since
     * they evict on demand.
     */
    bool prefixCache = false;
    /**
     * Deadline-aware admission control (null = every arrival is
     * eventually admitted). Policies assess each waiting sequence
     * before considering it and report hopeless ones in
     * SchedulerDecision::shed.
     */
    const overload::AdmissionController *admission = nullptr;
    /** Brownout level the admission verdicts honour. */
    overload::BrownoutLevel brownoutLevel =
        overload::BrownoutLevel::Normal;
    /** Decision time (needed for completion prediction). */
    aqua::sim::Tick now = 0;
};

/** State transitions the engine should perform this iteration. */
struct SchedulerDecision
{
    /** Waiting -> Running (prefill needed). */
    std::vector<Sequence *> admit;
    /** Swapped -> Running (KV paged back in). */
    std::vector<Sequence *> swapIn;
    /** Running -> Swapped (KV paged out). */
    std::vector<Sequence *> swapOut;
    /** Waiting -> shed: requests admission control gave up on (the
     *  engine records metrics and drops them without serving). */
    std::vector<std::pair<Sequence *, overload::ShedReason>> shed;

    bool
    empty() const
    {
        return admit.empty() && swapIn.empty() && swapOut.empty() &&
               shed.empty();
    }
};

/**
 * Scheduling policy interface.
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    virtual SchedulerDecision schedule(const SchedulerInput &in) = 0;

    /** Fair policies are re-evaluated at slice boundaries only. */
    virtual bool isFair() const = 0;

    virtual std::string name() const = 0;
};

/**
 * vLLM's default scheduler: FIFO admission gated on free KV blocks;
 * preempted sequences resume before new ones are admitted.
 */
class FcfsPolicy : public SchedulerPolicy
{
  public:
    SchedulerDecision schedule(const SchedulerInput &in) override;
    bool isFair() const override { return false; }
    std::string name() const override { return "fcfs"; }

  private:
    /** Waiting sequences admission control kept (reused per call). */
    std::vector<Sequence *> viableBuf;
};

/**
 * Completely fair scheduler over prompts (§5): every slice, run the
 * sequences with the fewest generated tokens that fit in memory;
 * page the rest out.
 */
class CfsPolicy : public SchedulerPolicy
{
  public:
    SchedulerDecision schedule(const SchedulerInput &in) override;
    bool isFair() const override { return true; }
    std::string name() const override { return "cfs"; }

  private:
    /**
     * One candidate's sort key. pos is its index in running, then
     * swapped, then viable order; it breaks (generated, arrival)
     * ties, so an unstable sort yields the stable order.
     */
    struct Key
    {
        aqua::sim::Tick arrival;
        Sequence *seq;
        std::uint32_t generated;
        std::uint32_t pos;
    };

    // Buffers reused across calls so a steady-state call allocates
    // nothing.
    std::vector<Sequence *> viableBuf;
    std::vector<Key> keys;
    /** Per candidate position: selected for this slice. */
    std::vector<std::uint8_t> chosen;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_SCHEDULER_HH
