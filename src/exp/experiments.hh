/**
 * @file
 * End-to-end experiment runners reproducing the paper's evaluation
 * (§6-§8, appendix A): each function assembles a testbed, places
 * models, drives the workload, and returns the series the
 * corresponding figure plots. Shared by bench/ binaries, examples and
 * the integration tests.
 */

#ifndef AQUA_EXP_EXPERIMENTS_HH
#define AQUA_EXP_EXPERIMENTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "federation/directory.hh"
#include "hw/fabric.hh"
#include "model/model_spec.hh"
#include "placer/placer.hh"
#include "serve/transfer_plan.hh"
#include "serve/vllm_engine.hh"
#include "stats/timeseries.hh"
#include "workload/request.hh"

namespace aqua::fault {
class FaultPlan;
}
namespace aqua::trace {
class TraceLog;
}

namespace aqua::exp {

/** How the consumer engine schedules and offloads. */
enum class ServeMode
{
    /** vLLM default: FCFS batching, DRAM offload. */
    VllmBaseline,
    /** CFS scheduling, still DRAM offload ("vLLM + CFS"). */
    CfsDram,
    /** CFS scheduling with AQUA TENSORS on a peer GPU. */
    CfsAqua,
};

/** Offload path for backends without a scheduling dimension. */
enum class OffloadMode
{
    Dram,
    Aqua,
    /** AQUA placement but naive per-chunk copies (no staging). */
    AquaUnstaged,
};

const char *serveModeName(ServeMode mode);
const char *offloadModeName(OffloadMode mode);

/**
 * End-of-run counters of the consumer engine in a one-consumer run:
 * the engine's own stats structs, copied by value, plus its offload
 * traffic and throughput.
 */
struct ConsumerStats
{
    /** Prefix index and prefix-cache counters (zero when caching is
     *  off). */
    serve::PrefixIndexStats prefixIndex;
    serve::PrefixCacheEngineStats prefix;
    /** Live-KV high-water mark in the consumer's pool (bytes). */
    std::uint64_t peakLiveKvBytes = 0;
    /** Bytes moved to/from the offload backend. */
    std::uint64_t offloadWriteBytes = 0;
    std::uint64_t offloadReadBytes = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    /** Consumer tokens per simulated second over the run. */
    double tokensPerSec = 0.0;
};

//
// CFS responsiveness (Fig. 1, Fig. 9, Fig. 15, Fig. 16).
//

struct CfsExperimentConfig
{
    ServeMode mode = ServeMode::VllmBaseline;
    double ratePerSec = 5.0;
    std::size_t numRequests = 100;
    /** Consumer LLM (Codellama-34B in §6.1). */
    std::string consumerModel = "Codellama-34B";
    /** Producer model sharing the server (Kandinsky in §6.1). */
    std::string producerModel = "Kandinsky";
    std::uint32_t sliceTokens = 5;
    std::uint64_t seed = 1;
    /** Hard stop (simulated); generous by default. */
    double maxSimSeconds = 4000.0;
};

struct CfsExperimentResult : ConsumerStats
{
    /** Per-request metrics, arrival order. */
    std::vector<workload::RequestMetrics> metrics;
    /** Producer items/s over the run (image/audio producers). */
    double producerThroughput = 0.0;
};

CfsExperimentResult runCfsExperiment(const CfsExperimentConfig &cfg);

//
// Long-prompt throughput (Fig. 7, Fig. 18).
//

struct LongPromptConfig
{
    OffloadMode mode = OffloadMode::Dram;
    std::string consumerModel = "OPT-30B";
    std::string producerModel = "StableDiffusion";
    std::uint32_t promptTokens = 8000;
    double durationSec = 600.0; // "ten minutes"
    /** Consumer/producer pairs; >1 uses the 8-GPU NVSwitch server. */
    std::size_t pairs = 1;
    /** Ablation: share one producer across all consumers. */
    bool sharedProducer = false;
    std::uint64_t seed = 1;
};

struct LongPromptResult
{
    /** Tokens generated per consumer within the duration. */
    std::vector<std::uint64_t> tokensPerConsumer;
    std::uint64_t totalTokens = 0;
};

LongPromptResult runLongPrompt(const LongPromptConfig &cfg);

//
// LoRA adapter offloading (Fig. 8, Fig. 12, §A.2): Mistral-7B with
// synthesized adapters.
//

struct LoraExperimentConfig
{
    OffloadMode mode = OffloadMode::Dram;
    /** Producer co-located on the server ("" = text producer). */
    std::string producerModel = "StableDiffusion";
    std::uint32_t numAdapters = 30;
    std::uint64_t adapterBytes = std::uint64_t(320) << 20;
    /** GPU bytes reserved for caching adapters. */
    std::uint64_t cacheBytes = std::uint64_t(10) * 320 << 20;
    double ratePerSec = 2.0;
    std::size_t numRequests = 200;
    std::uint64_t seed = 1;
    double maxSimSeconds = 7200.0;
};

struct LoraExperimentResult
{
    std::vector<workload::RequestMetrics> metrics;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

LoraExperimentResult runLoraExperiment(const LoraExperimentConfig &cfg);

//
// Elastic donate/reclaim (Fig. 10, Fig. 11): the consumer's long
// prompts and the producer's first load phase (100 requests at
// 1 req/s) start at the paper's ~150 s mark, the second phase
// (250 requests at 5 req/s) at its 400 s mark.
//

struct ElasticExperimentConfig
{
    /** false runs the producer alone without AQUA (Fig. 11 baseline). */
    bool withAqua = true;
    std::string producerModel = "Llama-2-13B";
    std::string consumerModel = "OPT-30B";
    double durationSec = 700.0;
    std::uint64_t seed = 1;
};

struct ElasticExperimentResult
{
    /** Producer-GPU free memory over time (donated counts as free). */
    std::vector<stats::Point> producerFreeMemory;
    /** Consumer tokens per 10 s bucket. */
    std::vector<stats::Point> consumerThroughput;
    /** Producer request metrics (for the Fig. 11 overhead view). */
    std::vector<workload::RequestMetrics> producerMetrics;
    std::uint64_t consumerTokens = 0;
};

ElasticExperimentResult
runElasticExperiment(const ElasticExperimentConfig &cfg);

//
// Resource-contention sweeps (Fig. 2) — analytic, via PerfModel.
//

struct ContentionPoint
{
    std::uint32_t batchSize = 0;
    double throughput = 0.0;
    double freeMemoryGb = 0.0;
};

std::vector<ContentionPoint>
contentionSweep(const std::string &modelName,
                const std::vector<std::uint32_t> &batchSizes);

//
// Chatbot (Fig. 13).
//

struct ChatbotConfig
{
    ServeMode mode = ServeMode::VllmBaseline;
    std::uint32_t users = 25;
    std::uint32_t turns = 4;
    std::string consumerModel = "Codellama-34B";
    std::string producerModel = "Kandinsky";
    std::uint64_t seed = 1;
    double maxSimSeconds = 20000.0;
    /** Copy-on-write prefix caching in the consumer engine. */
    bool prefixCache = false;
    /** Shared system prompt opening every conversation (tokens). */
    std::uint32_t systemPromptTokens = 0;
};

struct ChatbotResult : ConsumerStats
{
    /** All request metrics with the issuing turn attached. */
    struct TurnMetric
    {
        std::uint32_t turn = 0;
        workload::RequestMetrics metrics;
    };
    std::vector<TurnMetric> metrics;
};

ChatbotResult runChatbot(const ChatbotConfig &cfg);

//
// Prefix-caching ablation: shared-prefix workload served with CoW
// block sharing on vs off (hit rate, HBM high-water mark, offload
// traffic, throughput).
//

/** Distinct system prompts in play in the prefix ablation. */
inline constexpr std::uint32_t prefixAblationGroups = 2;

struct PrefixAblationConfig
{
    bool prefixCache = true;
    /** Cap on cache-only blocks as a pool fraction (1.0 = uncapped). */
    double maxCacheShare = 1.0;
    /** Cache-only block victim selection (LRU vs cost-aware). */
    serve::EvictionPolicy eviction = serve::EvictionPolicy::Lru;
    ServeMode mode = ServeMode::CfsAqua;
    double ratePerSec = 6.0;
    std::size_t numRequests = 120;
    /** Shared preamble (system prompt) length per group. */
    std::uint32_t prefixTokens = 768;
    std::string consumerModel = "Codellama-34B";
    std::string producerModel = "Kandinsky";
    /** KV storage precision (fp16 = exact legacy behaviour). */
    model::KvPrecision kvPrecision = model::KvPrecision::Fp16;
    /** Sparse-attention fraction of resident KV read per decode
     *  step (1.0 = dense, exact legacy behaviour). */
    double sparseReadFraction = 1.0;
    std::uint64_t seed = 1;
    double maxSimSeconds = 8000.0;
};

struct PrefixAblationResult : ConsumerStats
{
    std::vector<workload::RequestMetrics> metrics;
};

PrefixAblationResult runPrefixAblation(const PrefixAblationConfig &cfg);

//
// Cluster prefix registry: N consumer engines on one NVSwitch server
// share a hot prompt preamble. With the registry on, exactly one
// engine keeps the preamble's KV resident (the chain's *home*) and
// the others borrow or copy it over NVLink; with it off, every engine
// rematerialises and retains its own copy. The chaos variant kills
// the home GPU mid-run and audits recovery.
//

/**
 * What a fleet of consumer engines served, merged over the engines
 * (the cluster-prefix and federation runs).
 */
struct FleetResult
{
    /** All finished metrics across engines, id order. */
    std::vector<workload::RequestMetrics> metrics;
    /** Requests submitted but never finished (must be 0). */
    std::uint64_t unfinished = 0;
    /** Prompt tokens across submitted requests. */
    std::uint64_t promptTokens = 0;
    /** prefix.cachedTokens / promptTokens (the aggregate hit rate). */
    double aggregateHitRate = 0.0;
    /** Engine-side prefix counters, summed over engines. */
    serve::PrefixCacheEngineStats prefix;
    double tokensPerSec = 0.0;
    double elapsedSec = 0.0;
};

struct ClusterPrefixConfig
{
    /** Consumer engines (one per GPU, 2-8 on the NVSwitch server). */
    std::size_t consumers = 4;
    /** false = per-engine prefix caching only (the baseline). */
    bool registry = true;
    /** true = multi-turn chatbot with cross-engine turn routing;
     *  false = single-shot shared-preamble trace. */
    bool chatbot = false;
    double ratePerSec = 4.0;
    std::size_t numRequests = 96;
    /** Shared preamble (system prompt) length, tokens. */
    std::uint32_t prefixTokens = 768;
    /** Chatbot users and turns (chatbot = true). */
    std::uint32_t users = 16;
    std::uint32_t turns = 3;
    /** Max chain length served in place from the home GPU; longer
     *  chains are copied into local blocks. */
    std::uint32_t borrowMaxBlocks = 4;
    /** Cache-only block victim selection. */
    serve::EvictionPolicy eviction = serve::EvictionPolicy::Lru;
    /** Chaos: permanently kill the preamble's home GPU (gpu 0) at
     *  40 s and audit recovery on the survivors. Arrivals after 10 s
     *  avoid gpu 0, so the dying engine is idle when its memory goes
     *  dark. */
    bool chaos = false;
    /** KV storage precision on every engine (fp16 = legacy). */
    model::KvPrecision kvPrecision = model::KvPrecision::Fp16;
    /** Sparse-attention read fraction; < 1.0 also raises the
     *  borrow-vs-copy crossover (borrowed chains cost less). */
    double sparseReadFraction = 1.0;
    std::string consumerModel = "Codellama-34B";
    std::uint64_t seed = 1;
    double maxSimSeconds = 8000.0;
    /** Optional external log capturing fault/registry events. */
    trace::TraceLog *traceLog = nullptr;
};

struct ClusterPrefixResult : FleetResult
{
    /** Preamble KV bytes resident across all engines at the end. */
    std::uint64_t residentPrefixBytes = 0;
    /** Bytes of one resident copy of every preamble. */
    std::uint64_t singleCopyBytes = 0;
    /** residentPrefixBytes / singleCopyBytes (1.0 = one copy). */
    double residencyFactor = 0.0;

    /** Registry-side counters (zero when registry = false). */
    cluster::PrefixRegistryStats registry;
    /** Leases still outstanding after the drain (must be 0). */
    std::uint64_t activePins = 0;
};

ClusterPrefixResult runClusterPrefix(const ClusterPrefixConfig &cfg);

//
// Cross-server prefix federation: N servers (one consumer engine
// each) on a shared fabric serve traffic opening with the same hot
// preamble. Without federation every server re-prefills the preamble
// from scratch; with it the first server's copy is advertised through
// the federation directories and each other server streams it over
// the fabric at most once (the stream-vs-recompute cost model may
// instead choose local re-prefill when the wire is degraded or
// congested). The chaos variant kills the origin server's home GPU
// and degrades the fabric mid-run.
//

struct FederationRunConfig
{
    /** Servers on the fabric (one consumer engine each, on gpu 0). */
    std::size_t servers = 3;
    std::size_t gpusPerServer = 2;
    /** false = siloed per-server registries (the baseline). */
    bool federation = true;
    /** true = multi-turn chatbot whose turns hop servers, so the
     *  re-sent history is only reachable through federation. */
    bool chatbot = false;
    double ratePerSec = 3.0;
    std::size_t numRequests = 36;
    /** Shared preamble (system prompt) length, tokens. */
    std::uint32_t prefixTokens = 768;
    /** Chatbot users and turns (chatbot = true). */
    std::uint32_t users = 9;
    std::uint32_t turns = 3;
    /** Cluster-registry borrow cap inside each server. */
    std::uint32_t borrowMaxBlocks = 4;
    /** Per-home admission cap on concurrent remote consumers. */
    std::uint32_t maxRemoteConsumers = 2;
    /** Cost-model margin: stream only when safetyFactor x estimate
     *  beats local re-prefill. */
    double federationSafetyFactor = 1.2;
    /** Static wire degradation applied before the run, in (0, 1];
     *  the cost-model sweep's knob. */
    double fabricDegradation = 1.0;
    hw::FabricConfig fabric;
    /** Chaos: kill the origin server's home GPU permanently at 20 s
     *  and degrade the fabric to 5% from 4 s to 34 s. Arrivals after
     *  5 s avoid the dying server, so its engine is idle when the GPU
     *  goes dark. */
    bool chaos = false;
    /** KV storage precision on every engine (fp16 = legacy). */
    model::KvPrecision kvPrecision = model::KvPrecision::Fp16;
    std::string consumerModel = "Codellama-34B";
    std::uint64_t seed = 1;
    double maxSimSeconds = 8000.0;
    /** Optional external log capturing fault/federation events. */
    trace::TraceLog *traceLog = nullptr;
};

struct FederationRunResult : FleetResult
{
    /** Prompt tokens outside the shared preamble (per-request tails;
     *  promptTokens - tailTokens - prefix.cachedTokens bounds the
     *  preamble tokens actually re-prefilled across the cluster). */
    std::uint64_t tailTokens = 0;
    /** Directory counters, summed over servers (zero without
     *  federation). */
    federation::DirectoryStats directory;
    hw::FabricStats fabric;

    /**
     * FNV digest over the finished requests' (id, tokensGenerated),
     * id order. Output equivalence is timing-free: a fault-free
     * federated run must digest identically to the same run with
     * federation disabled, and to its chaos twin.
     */
    std::uint64_t outputDigest = 0;
};

FederationRunResult runFederation(const FederationRunConfig &cfg);

//
// Overload control: deadline-stamped bursty traffic at a load
// multiple, served with the overload controllers (deadline-aware
// admission + graceful brownout + backpressure) on vs off. The
// controlled configuration should hold goodput and bounded queue
// delay where the uncontrolled baseline collapses. The trace
// alternates 15 s quiet phases at 0.5 req/s with bursts at 1.5 req/s,
// both scaled by the load multiplier.
//

/** Deadline = arrival + overloadSloMultiple x fault-free baseline. */
inline constexpr double overloadSloMultiple = 3.0;

struct OverloadRunConfig
{
    ServeMode mode = ServeMode::CfsAqua;
    /** Admission control + brownout ladder + DRAM circuit breaker. */
    bool controlled = false;
    /** Scales both burst-phase arrival rates (x1 = nominal load). */
    double loadMultiplier = 1.0;
    std::size_t numRequests = 150;
    /** Engine capacity, deliberately small so the sweep saturates
     *  within a short trace: decode batch cap (0 = engine default)
     *  and explicit KV pool bytes (0 = derived from spare HBM). */
    std::uint32_t maxBatch = 16;
    std::uint64_t kvPoolBytes = 4ull * 1000 * 1000 * 1000;
    /** Fraction of requests submitted best-effort (no deadline). */
    double bestEffortFraction = 0.2;
    /** Admission safety factor (prediction pessimism). */
    double safetyFactor = 1.2;
    /** Pressure-driven KV precision governor (quantize-before-evict):
     *  demotes cold KV leaving HBM to narrower precision as the pool
     *  drains / the brownout ladder escalates. */
    bool precisionGovernor = false;
    std::string consumerModel = "Codellama-34B";
    std::string producerModel = "Kandinsky";
    std::uint64_t seed = 1;
    double maxSimSeconds = 4000.0;
    /** Optional chaos: injected against the donor while overloaded. */
    const fault::FaultPlan *faults = nullptr;
    /** Optional external log capturing shed/brownout/fault events. */
    trace::TraceLog *traceLog = nullptr;
};

/** prefix.sigMismatches counts byte-identity violations on the
 *  offload path (must be 0). */
struct OverloadRunResult : ConsumerStats
{
    /** Per-request metrics, id order (shed requests included). */
    std::vector<workload::RequestMetrics> metrics;
    /** Requests dropped by admission control / brownout. */
    std::uint64_t shed = 0;
    /** Swaps diverted to the DRAM fallback by the circuit breaker. */
    std::uint64_t fallbackSwaps = 0;
    /** Requests that finished serving and met their deadline. */
    std::uint64_t deadlineMet = 0;
    /** Served completions that missed their deadline. */
    std::uint64_t deadlineMissed = 0;
    /** Deadline-met completions per simulated second. */
    double goodputPerSec = 0.0;
    /** Deadline attainment over served completions, [0, 1]. */
    double attainment = 0.0;
    /** Queueing-delay percentiles over served deadline-bearing
     *  requests: sojourn minus the fault-free baseline latency the
     *  stamped SLO implies (captures fair-scheduler overload, which
     *  stretches decode rather than pooling an admission queue). */
    double queueDelayP50Sec = 0.0;
    double queueDelayP99Sec = 0.0;
    /** Brownout ladder activity (zero when uncontrolled). */
    overload::BrownoutStats brownout;
    /** KV precision governor activity (zero when disabled). */
    overload::KvPrecisionGovernorStats governor;
    /** Seconds spent at or above ForceDramOffload. */
    double secondsDegraded = 0.0;
    /** Requests neither finished nor shed at the horizon (a nonzero
     *  value means stuck/deadlocked sequences). */
    std::uint64_t unfinished = 0;
    /** Wall (simulated) seconds the run took to drain. */
    double elapsedSec = 0.0;
};

OverloadRunResult runOverload(const OverloadRunConfig &cfg);

//
// Storage tiering: a chatbot population whose sessions go cold
// mid-conversation. With the SSD tier attached, cold sessions park
// their KV on the drive and the follow-up turn streams it back
// through the prefetch pipeline when that beats re-prefilling; the
// baseline re-prefills every cold context from scratch.
//

struct TieringRunConfig
{
    /** Chat sessions. */
    std::uint32_t users = 24;
    /** Turns per session (turn boundaries are where sessions cool). */
    std::uint32_t turns = 2;
    /** Fraction of turns after which the user goes idle. */
    double coldFraction = 1.0;
    /** Idle gap distribution (exponential mean + floor), seconds. */
    double meanIdleSec = 60.0;
    double minIdleSec = 40.0;
    /** Attach the SSD tier (false = cold turns always re-prefill). */
    bool tiering = true;
    /** Sessions idling past this park their KV on the SSD. */
    double parkAfterSec = 30.0;
    /** Streaming must beat recompute by this factor to be chosen. */
    double resumeSafetyFactor = 1.1;
    /** Static media degradation applied before the run (1 = healthy);
     *  shifts the stream-vs-recompute crossover. */
    double ssdDegradeFactor = 1.0;
    std::uint32_t maxBatch = 16;
    std::uint64_t kvPoolBytes = 6ull * 1000 * 1000 * 1000;
    /** Prefix caching (off by default so the resume comparison is
     *  purely stream-vs-recompute, not cache-hit luck). */
    bool prefixCache = false;
    std::string consumerModel = "Codellama-34B";
    std::uint64_t seed = 1;
    double maxSimSeconds = 4000.0;
    /** Optional chaos (ssd_degrade / ssd_fail mid-run). */
    const fault::FaultPlan *faults = nullptr;
    trace::TraceLog *traceLog = nullptr;
};

struct TieringRunResult : ConsumerStats
{
    /** Per-request metrics, id order. */
    std::vector<workload::RequestMetrics> metrics;

    /** Engine-side tier activity. */
    std::uint64_t parks = 0;
    std::uint64_t streamResumes = 0;
    std::uint64_t recomputeResumes = 0;
    std::uint64_t tierDemotions = 0;
    /** Sessions still parked when the run drained. */
    std::uint64_t parkedAtEnd = 0;

    /** TTFT of cold-resume turns vs. turns that stayed warm. */
    double coldTtftP50Sec = 0.0;
    double coldTtftP99Sec = 0.0;
    double warmTtftP50Sec = 0.0;

    /** Resume-stream accounting of the tier's TransferPlan (zero
     *  without tiering). */
    serve::PrefetchStats prefetch;
    double overlapEfficiencyMean = 0.0;

    /** Media traffic. */
    std::uint64_t ssdBytesRead = 0;
    std::uint64_t ssdBytesWritten = 0;

    /** Requests unfinished at the horizon (must be 0). */
    std::uint64_t unfinished = 0;
    double elapsedSec = 0.0;
};

TieringRunResult runTiering(const TieringRunConfig &cfg);

//
// Placement inputs (§6.1, Fig. 4, Fig. 14).
//

/**
 * Build the §6.1 cluster: @p numServers servers of @p gpusPerServer
 * GPUs filled with models sampled (with replacement) from the given
 * split.
 *
 * @param split "balanced" = equal thirds image/audio/text;
 *              "llm-heavy" = all LLMs with varying workloads
 *              (half producers, half consumers).
 */
placer::PlacementInput
makeClusterInput(std::size_t numServers, std::size_t gpusPerServer,
                 const std::string &split, std::uint64_t seed = 1);

/**
 * Memory requirement R_m of a model preset under its evaluation
 * workload: positive surplus for producers, negative deficit for
 * consumers (§4 "these inputs should be derived experimentally").
 */
std::int64_t modelMemoryRequirement(const std::string &modelName,
                                    bool asProducer);

//
// End-to-end cluster evaluation (§6.1): place 16 models over 8x2-GPU
// servers with AQUA-PLACER, then run every server's workload. As in
// the paper, servers are evaluated "independently and sequentially"
// using the 2-GPU testbed as the building block.
//

struct EndToEndConfig
{
    /** "balanced" or "llm-heavy" (§6.1). */
    std::string split = "balanced";
    /** false = all consumers offload to DRAM (the baseline). */
    bool withAqua = true;
    std::size_t numServers = 8;
    std::size_t gpusPerServer = 2;
    double durationSec = 300.0;
    std::uint64_t seed = 1;
};

struct EndToEndResult
{
    /** Tokens generated by OPT-30B long-prompt consumers. */
    std::uint64_t longPromptTokens = 0;
    std::size_t longPromptConsumers = 0;
    /** Finished metrics from Mistral LoRA consumers. */
    std::vector<workload::RequestMetrics> loraMetrics;
    /** Finished metrics from Codellama CFS consumers. */
    std::vector<workload::RequestMetrics> cfsMetrics;
    /** Items generated by image/audio producers. */
    std::uint64_t producerItems = 0;
    /** Consumers that got a producer pairing from the placer. */
    std::size_t pairedConsumers = 0;
    std::size_t totalConsumers = 0;
};

EndToEndResult runEndToEnd(const EndToEndConfig &cfg);

} // namespace aqua::exp

#endif // AQUA_EXP_EXPERIMENTS_HH
