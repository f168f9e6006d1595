#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

namespace aqua::workload {

using namespace aqua::sim;

namespace {

std::uint32_t
clampTokens(double v, std::uint32_t lo, std::uint32_t hi)
{
    if (v < lo)
        return lo;
    if (v > hi)
        return hi;
    return static_cast<std::uint32_t>(v);
}

} // anonymous namespace

ShareGptSampler::ShareGptSampler(Random rng) : rng(rng) {}

std::uint32_t
ShareGptSampler::samplePromptTokens()
{
    // ShareGPT prompts: median ~60 tokens with a heavy tail out to a
    // couple of thousand. lognormal(mu=4.2, sigma=1.0) gives median
    // e^4.2 = 67, p95 ~ 350.
    return clampTokens(rng.lognormal(4.2, 1.0), 4, 2048);
}

std::uint32_t
ShareGptSampler::sampleOutputTokens()
{
    // ShareGPT responses are longer: median ~200 tokens.
    return clampTokens(rng.lognormal(5.3, 0.8), 8, 2048);
}

TraceBuilder::TraceBuilder(Random rng)
    : rng(rng), lengths(this->rng)
{
    // Decouple the two streams: re-seed the length sampler from the
    // arrival stream once so draws don't interleave.
    lengths = ShareGptSampler(Random(this->rng.next64()));
}

void
TraceBuilder::stampSlo(Request &r)
{
    if (slo.multiple <= 0.0)
        return;
    if (slo.bestEffortFraction > 0.0 &&
        rng.uniform(0.0, 1.0) < slo.bestEffortFraction) {
        r.bestEffort = true;
        return;
    }
    // Fault-free baseline: queue-free TTFT plus the decode tail.
    double baseline = slo.baseTtftSec +
                      double(r.maxNewTokens) * slo.basePerTokenSec;
    r.deadline = r.arrival + secToTicks(slo.multiple * baseline);
}

void
TraceBuilder::stampIdle(Request &r)
{
    if (idle.coldFraction <= 0.0)
        return;
    // Always burn one uniform draw so the arrival/length streams stay
    // aligned whether or not this particular user goes idle.
    bool cold = rng.uniform(0.0, 1.0) < idle.coldFraction;
    double gap =
        idle.minIdleSec + rng.exponential(1.0 / idle.meanIdleSec);
    if (cold)
        r.idleGapSec = gap;
}

std::vector<Request>
TraceBuilder::interactive(double ratePerSec, std::size_t count,
                          Tick start)
{
    std::vector<Request> out;
    out.reserve(count);
    Tick when = start;
    for (std::size_t i = 0; i < count; ++i) {
        when += secToTicks(rng.exponential(ratePerSec));
        Request r;
        r.id = nextId++;
        r.arrival = when;
        r.promptTokens = lengths.samplePromptTokens();
        r.maxNewTokens = lengths.sampleOutputTokens();
        stampSlo(r);
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
TraceBuilder::bursty(double quietRate, double burstRate,
                     double phaseSec, std::size_t count, Tick start)
{
    std::vector<Request> out;
    out.reserve(count);
    Tick when = start;
    Tick phase = secToTicks(phaseSec);
    for (std::size_t i = 0; i < count; ++i) {
        // Phase is determined by absolute time: even windows quiet,
        // odd windows bursting.
        bool bursting = ((when - start) / phase) % 2 == 1;
        double rate = bursting ? burstRate : quietRate;
        when += secToTicks(rng.exponential(rate));
        Request r;
        r.id = nextId++;
        r.arrival = when;
        r.promptTokens = lengths.samplePromptTokens();
        r.maxNewTokens = lengths.sampleOutputTokens();
        stampSlo(r);
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
TraceBuilder::codeSummary(double ratePerSec, std::size_t count,
                          Tick start)
{
    std::vector<Request> out;
    out.reserve(count);
    Tick when = start;
    for (std::size_t i = 0; i < count; ++i) {
        when += secToTicks(rng.exponential(ratePerSec));
        Request r;
        r.id = nextId++;
        r.arrival = when;
        // Python files from the authors' codebase.
        r.promptTokens = static_cast<std::uint32_t>(
            rng.uniformInt(200, 600));
        // Detailed summaries.
        r.maxNewTokens = static_cast<std::uint32_t>(
            rng.uniformInt(256, 512));
        stampSlo(r);
        out.push_back(r);
    }
    return out;
}

std::vector<Request>
TraceBuilder::lora(double ratePerSec, std::size_t count,
                   std::uint32_t numAdapters, Tick start)
{
    std::vector<Request> out = interactive(ratePerSec, count, start);
    for (Request &r : out) {
        r.adapter = static_cast<model::LoraId>(
            rng.uniformInt(0, static_cast<std::int64_t>(numAdapters) - 1));
    }
    return out;
}

std::vector<Request>
TraceBuilder::sharedPrefix(double ratePerSec, std::size_t count,
                           std::uint32_t prefixTokens,
                           std::uint32_t numGroups, Tick start)
{
    std::vector<Request> out;
    out.reserve(count);
    Tick when = start;
    for (std::size_t i = 0; i < count; ++i) {
        when += secToTicks(rng.exponential(ratePerSec));
        Request r;
        r.id = nextId++;
        r.arrival = when;
        std::uint32_t group = numGroups <= 1
            ? 0
            : static_cast<std::uint32_t>(rng.uniformInt(
                  0, static_cast<std::int64_t>(numGroups) - 1));
        r.prefixStream = contentStreamId(0x5e5751ull + group);
        r.prefixTokens = prefixTokens;
        r.promptTokens = prefixTokens + lengths.samplePromptTokens();
        r.maxNewTokens = lengths.sampleOutputTokens();
        stampSlo(r);
        out.push_back(r);
    }
    return out;
}

Request
TraceBuilder::longPrompt(std::uint32_t promptTokens,
                         std::uint32_t maxNewTokens, Tick arrival)
{
    Request r;
    r.id = nextId++;
    r.arrival = arrival;
    r.promptTokens = promptTokens;
    r.maxNewTokens = maxNewTokens;
    return r;
}

namespace {

/** Content streams for chatbot conversations and system prompts. */
std::uint64_t
chatUserStream(std::uint32_t userId)
{
    return contentStreamId(0xc4a7b07ull + userId);
}

constexpr std::uint64_t kChatSystemTag = 0x5e57c4a7ull;

/** Tag a request's tokens as one user's conversation, optionally
 *  opened by the shared system prompt. */
void
tagChatStreams(Request &r, std::uint32_t userId,
               std::uint32_t systemPromptTokens)
{
    r.contentStream = chatUserStream(userId);
    if (systemPromptTokens > 0) {
        r.prefixStream = contentStreamId(kChatSystemTag);
        r.prefixTokens = systemPromptTokens;
    }
}

} // anonymous namespace

std::vector<Request>
TraceBuilder::chatbotFirstTurn(std::uint32_t users, Tick start,
                               std::uint32_t systemPromptTokens)
{
    std::vector<Request> out;
    out.reserve(users);
    for (std::uint32_t u = 0; u < users; ++u) {
        Request r;
        r.id = nextId++;
        // Users arrive within a short window at session start.
        r.arrival = start + secToTicks(rng.uniform(0.0, 2.0));
        // Code-assistant conversations: code-sized prompts and
        // detailed answers (the paper chats with Codellama-34B, §8).
        r.promptTokens = systemPromptTokens + static_cast<std::uint32_t>(
            rng.uniformInt(200, 600));
        r.maxNewTokens = static_cast<std::uint32_t>(
            rng.uniformInt(256, 512));
        r.userId = u;
        r.turn = 0;
        tagChatStreams(r, u, systemPromptTokens);
        stampIdle(r);
        out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival < b.arrival;
              });
    return out;
}

Request
TraceBuilder::chatbotFollowUp(std::uint32_t userId, std::uint32_t turn,
                              Tick arrival,
                              std::uint32_t historyTokens,
                              std::uint32_t systemPromptTokens)
{
    Request r;
    r.id = nextId++;
    // Think time before the user replies (Poisson-distributed issue
    // times per the paper's chatbot experiment, §8).
    r.arrival = arrival + secToTicks(rng.exponential(1.0 / 3.0));
    // The conversation so far is re-sent as part of the prompt.
    r.promptTokens = historyTokens + static_cast<std::uint32_t>(
        rng.uniformInt(200, 600));
    r.maxNewTokens = static_cast<std::uint32_t>(
        rng.uniformInt(256, 512));
    r.userId = userId;
    r.turn = turn;
    tagChatStreams(r, userId, systemPromptTokens);
    stampIdle(r);
    return r;
}

} // namespace aqua::workload
