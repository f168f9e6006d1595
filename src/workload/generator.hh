/**
 * @file
 * Workload generators: arrival processes and prompt-length samplers
 * matching the paper's evaluation workloads (§6).
 *
 *  - Interactive: ShareGPT-like prompt/response lengths, Poisson
 *    arrivals at 1-10 requests/second.
 *  - Long prompts: 8,000-token single prompts for FlexGen/OPT-30B.
 *  - LoRA: requests tagged with adapters sampled from a pool.
 *  - Code summarization: long prompts (source files), short outputs.
 *  - Chatbot: N users, one outstanding prompt per user, re-issued
 *    after each response (Fig. 13).
 */

#ifndef AQUA_WORKLOAD_GENERATOR_HH
#define AQUA_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/ticks.hh"
#include "workload/request.hh"

namespace aqua::workload {

/**
 * Samples prompt and output lengths resembling the ShareGPT dataset:
 * lognormal with a short-prompt mode and a heavy tail, clamped to a
 * maximum. Like the paper, the response length in the dataset becomes
 * the generation budget.
 */
class ShareGptSampler
{
  public:
    explicit ShareGptSampler(aqua::sim::Random rng);

    /** Sample a prompt length in tokens. */
    std::uint32_t samplePromptTokens();

    /** Sample a generation budget in tokens. */
    std::uint32_t sampleOutputTokens();

  private:
    aqua::sim::Random rng;
};

/**
 * Deadline-stamping policy for generated traces: each request's SLO
 * is a configurable multiple of its fault-free baseline latency
 * (baseline TTFT plus a per-output-token cost). A multiple of 0
 * disables stamping, which is the default — existing traces are
 * unchanged.
 */
struct SloSpec
{
    /** Deadline = arrival + multiple x baseline latency; 0 = off. */
    double multiple = 0.0;
    /** Fault-free baseline time-to-first-token, seconds. */
    double baseTtftSec = 0.5;
    /** Fault-free baseline latency per generated token, seconds. */
    double basePerTokenSec = 0.05;
    /** Fraction of requests marked best-effort (no deadline; shed
     *  first under brownout). */
    double bestEffortFraction = 0.0;
};

/**
 * Idle-gap stamping policy: a configurable fraction of chatbot/agent
 * requests is followed by the user going idle for an exponentially
 * distributed gap (plus a floor), modelling sessions that go cold.
 * Draws come from the builder's seeded RNG, so gaps are deterministic
 * per seed. The default fraction of 0 leaves existing traces
 * unchanged.
 */
struct IdleSpec
{
    /** Fraction of requests whose user goes idle afterwards; 0 = off. */
    double coldFraction = 0.0;
    /** Mean of the exponential part of the idle gap, seconds. */
    double meanIdleSec = 120.0;
    /** Floor added to every stamped gap, seconds. */
    double minIdleSec = 30.0;
};

/**
 * Builds request traces.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(aqua::sim::Random rng);

    /** Stamp deadlines on subsequently built traces (Poisson-arrival
     *  builders: interactive, bursty, codeSummary, sharedPrefix and
     *  the LoRA variants). */
    void setSlo(SloSpec spec) { slo = spec; }

    /** Stamp idle gaps on subsequently built chatbot requests
     *  (chatbotFirstTurn and chatbotFollowUp). */
    void setIdle(IdleSpec spec) { idle = spec; }

    /**
     * Interactive ShareGPT-like trace: Poisson arrivals.
     *
     * @param ratePerSec Mean arrival rate.
     * @param count Number of requests.
     * @param start First possible arrival time.
     */
    std::vector<Request> interactive(double ratePerSec,
                                     std::size_t count,
                                     aqua::sim::Tick start = 0);

    /**
     * Code-summarization trace: long prompts (sampled source files,
     * 1-4k tokens), short summaries (~128-256 tokens).
     */
    std::vector<Request> codeSummary(double ratePerSec,
                                     std::size_t count,
                                     aqua::sim::Tick start = 0);

    /**
     * Bursty interactive trace: arrivals alternate between a quiet
     * rate and a burst rate with the given period (a two-state
     * modulated Poisson process). Serving engines that admit by
     * batch starve precisely during the bursts (§9: AQUA's fair
     * scheduler exists to "gracefully handle bursts").
     *
     * @param quietRate Requests/second in the quiet phase.
     * @param burstRate Requests/second in the burst phase.
     * @param phaseSec Duration of each phase.
     * @param count Number of requests.
     */
    std::vector<Request> bursty(double quietRate, double burstRate,
                                double phaseSec, std::size_t count,
                                aqua::sim::Tick start = 0);

    /**
     * LoRA trace: interactive requests, each randomly assigned one of
     * @p numAdapters adapters (the paper assigns one of 30).
     */
    std::vector<Request> lora(double ratePerSec, std::size_t count,
                              std::uint32_t numAdapters,
                              aqua::sim::Tick start = 0);

    /**
     * Shared-prefix interactive trace: every request opens with a
     * common preamble (a chatbot system prompt) drawn from one of
     * @p numGroups content streams, followed by a user-specific rest.
     * Prefix caching should deduplicate the preamble KV across all
     * requests of a group (Fig. 13's serving pattern).
     *
     * @param prefixTokens Length of the shared preamble.
     * @param numGroups Distinct system prompts in play.
     */
    std::vector<Request> sharedPrefix(double ratePerSec,
                                      std::size_t count,
                                      std::uint32_t prefixTokens,
                                      std::uint32_t numGroups = 1,
                                      aqua::sim::Tick start = 0);

    /**
     * A single long prompt (default 8,000 tokens — GPT-4's context
     * limit per §6) with a large generation budget.
     */
    Request longPrompt(std::uint32_t promptTokens = 8000,
                       std::uint32_t maxNewTokens = 2000,
                       aqua::sim::Tick arrival = 0);

    /**
     * First turn of the chatbot workload: @p users prompts arriving in
     * a short burst. Subsequent turns are issued reactively by the
     * experiment driver when responses return. Each user's tokens come
     * from a per-user content stream, so a follow-up's re-sent history
     * is byte-identical to the earlier turns (prefix-cacheable).
     *
     * @param systemPromptTokens Shared system preamble prepended to
     *        every user's first prompt (0 = none).
     */
    std::vector<Request>
    chatbotFirstTurn(std::uint32_t users, aqua::sim::Tick start = 0,
                     std::uint32_t systemPromptTokens = 0);

    /**
     * Sample a chatbot follow-up for @p userId at @p turn.
     *
     * @param historyTokens Tokens of conversation so far (previous
     *        prompts and responses); chat engines re-send the history
     *        with each turn, so the prompt grows turn over turn.
     * @param systemPromptTokens Must match the first turn's value.
     */
    Request chatbotFollowUp(std::uint32_t userId, std::uint32_t turn,
                            aqua::sim::Tick arrival,
                            std::uint32_t historyTokens = 0,
                            std::uint32_t systemPromptTokens = 0);

    /** Access the underlying sampler (e.g. for tests). */
    ShareGptSampler &sampler() { return lengths; }

  private:
    /** Apply the SLO spec to a freshly built request. */
    void stampSlo(Request &r);

    /** Apply the idle spec to a freshly built chatbot request. */
    void stampIdle(Request &r);

    RequestId nextId = 0;
    aqua::sim::Random rng;
    ShareGptSampler lengths;
    SloSpec slo;
    IdleSpec idle;
};

} // namespace aqua::workload

#endif // AQUA_WORKLOAD_GENERATOR_HH
