/**
 * @file
 * Continuous-batching LLM serving engine (vLLM-style), with pluggable
 * scheduling policy and offload backend, plus the AQUA northbound
 * integration to act as a memory producer (Table 2) or a memory
 * consumer (Table 1).
 *
 * The engine is iteration-driven: each step() performs at most one
 * inference iteration (a batched prefill or a batched decode) plus the
 * context-switch transfers the policy decided on. Prompt (prefill)
 * computation is prioritised over token generation, as the paper notes
 * of production engines (§6.1). Per §B, AQUA-related migrations only
 * settle at iteration boundaries via backend->respond().
 */

#ifndef AQUA_SERVE_VLLM_ENGINE_HH
#define AQUA_SERVE_VLLM_ENGINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "model/perf_model.hh"
#include "overload/controls.hh"
#include "serve/kv_cache.hh"
#include "serve/kv_integrity.hh"
#include "serve/lora_cache.hh"
#include "serve/offload_backend.hh"
#include "serve/prefix_cache.hh"
#include "serve/scheduler.hh"
#include "serve/sequence.hh"
#include "serve/swap_store.hh"
#include "stats/timeseries.hh"
#include "trace/trace.hh"
#include "workload/request.hh"

namespace aqua::serve {

/** How preempted sequences give up their KV cache. */
enum class PreemptionMode
{
    /** Page the KV out to the offload backend and back (the paper's
     *  CFS context switch; cost = transfer time). */
    Swap,
    /** Drop the KV and re-prefill prompt + generated tokens on
     *  resume (vLLM's other policy; cost = recompute FLOPs). */
    Recompute,
};

/** Engine tunables. */
struct VllmEngineConfig
{
    /** Max sequences decoded per iteration. */
    std::uint32_t maxBatch = 48;
    /** Admission slack beyond the prompt, in tokens. */
    std::uint32_t slackTokens = 32;
    /**
     * Chunked prefill: cap on prompt tokens processed per prefill
     * iteration (0 = unlimited). Long prompts then prefill across
     * several iterations instead of monopolizing one, which bounds
     * the decode stall a giant admission causes.
     */
    std::uint32_t maxPrefillTokensPerIter = 0;
    /** CFS slice length in generated tokens (Fig. 6 uses 5). */
    std::uint32_t cfsSliceTokens = 5;
    /** Call AQUA-LIB informStats() every this many iterations. */
    std::uint32_t informEveryIters = 8;
    /** Explicit KV pool size; overrides the default share of free
     *  HBM when nonzero. */
    std::uint64_t kvPoolBytesOverride = 0;
    /** LoRA cache configuration; nullopt disables adapter support. */
    std::optional<LoraCacheConfig> lora;
    /** What preemption costs: transfers (Swap) or FLOPs (Recompute). */
    PreemptionMode preemption = PreemptionMode::Swap;
    /**
     * Automatic prefix caching with copy-on-write block sharing: new
     * sequences reuse resident KV blocks matching their prompt prefix
     * (skipping that prefill compute), shared prefixes are offloaded
     * through the backend once per group instead of once per
     * borrower, and index-held blocks evict LRU-first under memory
     * pressure. Off by default (the vLLM baseline the paper measures
     * against does not share KV).
     */
    bool prefixCache = false;
    /**
     * Cap on the prefix cache's share of the KV pool (fraction of
     * total blocks that may be held by cache-only entries). 1.0 = no
     * cap; see KvCacheConfig::maxCacheShare.
     */
    double maxCacheShare = 1.0;
    /** Prefix-cache eviction victim ordering (Lru or CostAware). */
    EvictionPolicy prefixEviction = EvictionPolicy::Lru;
    /**
     * Cluster prefix registry: publish resident shared-prefix chains
     * to the coordinator, and on a local miss look up a remote home
     * copy and stream (or borrow) it over NVLink instead of
     * re-prefilling. Requires attachClusterPrefix() and
     * cfg.prefixCache. Off by default.
     */
    bool clusterPrefix = false;
    /**
     * Longest remote chain (in blocks) a consumer serves in place
     * from the home GPU instead of streaming a local copy. Borrowed
     * leads charge every decode step a peer read of the lead's KV,
     * so only short chains are worth borrowing.
     */
    std::uint32_t clusterBorrowMaxBlocks = 4;
    /**
     * Cross-server prefix federation: on a scale-up-domain miss,
     * consult the coordinator's federation directory for a chain
     * homed on another server and stream it over the inter-server
     * fabric when the cost model says that beats re-prefilling
     * locally. The lookup order is local registry, then federation
     * directory, then recompute. Requires attachFederation() and the
     * cluster prefix path (cfg.clusterPrefix). Off by default.
     */
    bool federation = false;
    /**
     * Safety factor the federation fetch's stream-vs-recompute check
     * applies to the streamed side; > 1 biases toward recompute when the
     * estimates are close.
     */
    double federationSafetyFactor = 1.2;
    /**
     * Precision the KV cache is served at (QServe-style quantized KV).
     * Scales block sizes, swap/park payloads, staging transfers and
     * registry streams — smaller transfers land lower on the link
     * bandwidth ramp — at the cost of a per-step dequant pass in the
     * perf model. Fp16 (the default) is the exact pre-quantization
     * behaviour.
     */
    model::KvPrecision kvPrecision = model::KvPrecision::Fp16;
    /**
     * Fraction of resident KV each decode step reads (sparse
     * attention). Scales decode's KV memory traffic and the per-step
     * peer-read charge of borrowed remote leads — which also raises
     * the borrow-vs-copy crossover (clusterBorrowMaxBlocks is divided
     * by this). 1.0 (default) = dense reads, exact legacy behaviour.
     */
    double sparseReadFraction = 1.0;
    /** Overload control: deadline-aware admission, the brownout
     *  ladder and the cold-KV precision governor (each off unless
     *  its config is set). */
    overload::ControlsConfig overload;
};

/** Sharing-path counters kept by the engine (all zero when off). */
struct PrefixCacheEngineStats
{
    /** Prefill tokens served from cache (compute + KV writes skipped). */
    std::uint64_t cachedTokens = 0;
    /** Copy-on-write forks of shared partial-tail blocks. */
    std::uint64_t cowForks = 0;
    /** Swap-outs whose shared prefix joined an existing group. */
    std::uint64_t sharedSwapOuts = 0;
    /** Shared-group materializations (one backend write per group). */
    std::uint64_t groupWrites = 0;
    /** Offload write bytes avoided by group dedup. */
    std::uint64_t dedupSavedBytes = 0;
    /** Swap-in read bytes avoided by re-acquiring resident blocks. */
    std::uint64_t residentReuseBytes = 0;
    /** Byte-identity violations across offload round trips (must
     *  stay zero; checked via block content signatures). */
    std::uint64_t sigMismatches = 0;

    //
    // Cluster registry path (zero unless cfg.clusterPrefix).
    //

    /** Registry lookups that yielded a usable remote home chain. */
    std::uint64_t registryHits = 0;
    /** Registry lookups that missed or were unusable (dead home,
     *  signature mismatch, pin refused, self-home). */
    std::uint64_t registryMisses = 0;
    /** Bytes streamed from peer homes into local blocks at admission. */
    std::uint64_t remoteCopyBytes = 0;
    /** Bytes read from peer homes by decode steps of borrowed leads. */
    std::uint64_t remoteDecodeReadBytes = 0;
    /** Admissions serving the lead in place from the home GPU. */
    std::uint64_t borrowAdmissions = 0;
    /** Admissions that streamed a local copy of the remote chain. */
    std::uint64_t copyAdmissions = 0;
    /** Remote matches rejected by the consumer-side chain-signature
     *  check (must stay zero outside collision-injection tests). */
    std::uint64_t clusterSigMismatches = 0;
    /** Borrowed leads lost to a home-GPU failure mid-sequence. */
    std::uint64_t remoteBrokenChains = 0;
    /** Prefix-hit tokens by origin of the blocks that served them. */
    std::uint64_t hitTokensLocal = 0;
    std::uint64_t hitTokensRemote = 0;
    std::uint64_t hitTokensDram = 0;
    std::uint64_t hitTokensRemoteServer = 0;

    //
    // Cross-server federation path (zero unless cfg.federation).
    //

    /** Directory lookups that found a live remote-server advert. */
    std::uint64_t fedHits = 0;
    std::uint64_t fedMisses = 0;
    /** Cost-model verdicts: stream the copy / re-prefill locally. */
    std::uint64_t fedStreamDecisions = 0;
    std::uint64_t fedRecomputeDecisions = 0;
    /** Fetches the home refused (admission cap, stale, outage). */
    std::uint64_t fedFetchRefusals = 0;
    /** Completed streams by validation outcome: an invalidated
     *  stream's payload is discarded and the request re-prefills. */
    std::uint64_t fedStreamsCompleted = 0;
    std::uint64_t fedStreamsInvalidated = 0;
    /** Bytes streamed in over the inter-server fabric. */
    std::uint64_t fedStreamBytes = 0;

    /** Sum another engine's counters into these (fleet totals). */
    PrefixCacheEngineStats &
    operator+=(const PrefixCacheEngineStats &o)
    {
        cachedTokens += o.cachedTokens;
        cowForks += o.cowForks;
        sharedSwapOuts += o.sharedSwapOuts;
        groupWrites += o.groupWrites;
        dedupSavedBytes += o.dedupSavedBytes;
        residentReuseBytes += o.residentReuseBytes;
        sigMismatches += o.sigMismatches;
        registryHits += o.registryHits;
        registryMisses += o.registryMisses;
        remoteCopyBytes += o.remoteCopyBytes;
        remoteDecodeReadBytes += o.remoteDecodeReadBytes;
        borrowAdmissions += o.borrowAdmissions;
        copyAdmissions += o.copyAdmissions;
        clusterSigMismatches += o.clusterSigMismatches;
        remoteBrokenChains += o.remoteBrokenChains;
        hitTokensLocal += o.hitTokensLocal;
        hitTokensRemote += o.hitTokensRemote;
        hitTokensDram += o.hitTokensDram;
        hitTokensRemoteServer += o.hitTokensRemoteServer;
        fedHits += o.fedHits;
        fedMisses += o.fedMisses;
        fedStreamDecisions += o.fedStreamDecisions;
        fedRecomputeDecisions += o.fedRecomputeDecisions;
        fedFetchRefusals += o.fedFetchRefusals;
        fedStreamsCompleted += o.fedStreamsCompleted;
        fedStreamsInvalidated += o.fedStreamsInvalidated;
        fedStreamBytes += o.fedStreamBytes;
        return *this;
    }
};
// A counter added above must be summed in operator+= too.
static_assert(sizeof(PrefixCacheEngineStats) ==
              27 * sizeof(std::uint64_t));

/**
 * The serving engine.
 */
class VllmEngine
{
  public:
    using CompletionCallback =
        std::function<void(const workload::RequestMetrics &)>;

    /** Tokens per KV block (vLLM default). */
    static constexpr std::uint32_t blockTokens = 16;

    /**
     * @param server Owning server.
     * @param gpu GPU hosting the model.
     * @param modelSpec Served model (must be text).
     * @param policy Scheduling policy (owned).
     * @param backend Offload backend for swaps and adapters.
     * @param config Tunables.
     * @param adapters LoRA pool; requires config.lora.
     */
    VllmEngine(hw::Server &server, hw::GpuId gpu,
               const model::ModelSpec &modelSpec,
               std::unique_ptr<SchedulerPolicy> policy,
               OffloadBackend &backend, VllmEngineConfig config = {},
               std::vector<model::LoraAdapter> adapters = {});

    VllmEngine(const VllmEngine &) = delete;
    VllmEngine &operator=(const VllmEngine &) = delete;
    ~VllmEngine();

    /**
     * Attach an AQUA-LIB instance for the producer role: the engine
     * will feed informStats() and honour donate/reclaim deltas.
     */
    void attachAquaLib(core::AquaLib *lib);

    /**
     * Attach the cluster prefix registry plus the AquaLib carrying
     * this engine's southbound REST access. When cfg.clusterPrefix and
     * cfg.prefixCache are set, registers this GPU's RegistryAgent
     * (pin/promote callbacks) and enables the remote prefix-read
     * admission path; otherwise a no-op. Both non-owning; must outlive
     * the engine.
     */
    void attachClusterPrefix(cluster::PrefixRegistry *registry,
                             core::AquaLib *lib);

    /**
     * Attach the inter-server fabric for cross-server prefix
     * federation: @p fabric carries the KV streams, @p serverIndex is
     * this engine's server on it, and @p lib carries the southbound
     * /federation REST access (normally the same AquaLib as the
     * cluster path). Enables the federation admission path when
     * cfg.federation is set; requires attachClusterPrefix(). All
     * non-owning; must outlive the engine.
     */
    void attachFederation(hw::Fabric *fabric,
                          std::uint32_t serverIndex,
                          core::AquaLib *lib);

    /** Trace overload-control, prefix-hit and integrity events into
     *  @p log (non-owning; null disables). */
    void setTraceLog(trace::TraceLog *log);

    /**
     * Fallback offload backend (typically host DRAM) the brownout
     * circuit breaker diverts swaps to at ForceDramOffload while the
     * primary (NVLink donor) path is reclaiming or degraded.
     * Non-owning; must outlive the engine.
     */
    void setFallbackBackend(OffloadBackend *b) { swaps->setFallback(b); }

    /**
     * Attach a storage tier (SSD) below the offload backends. Enables
     * cold-session park/resume — sessions whose user idles past the
     * tier's park threshold move their KV down instead of holding it,
     * and a follow-up turn streams it back when that beats
     * re-prefilling — plus the periodic demotion settle pass over
     * swapped-out KV sitting in host DRAM. Non-owning; must outlive
     * the engine.
     */
    void attachSsdTier(SsdTier *tier) { swaps->setTier(tier); }

    /** Submit a request (call at its arrival time). */
    void submit(const workload::Request &request);

    /** Register a completion hook (fires at the finish tick). */
    void onComplete(CompletionCallback cb) { completionCb = std::move(cb); }

    /**
     * Observe every decode iteration: called with the iteration's
     * completion tick and the request ids that generated a token.
     * Used by the Fig. 6 timeline reproduction and by tests.
     */
    using IterationCallback = std::function<void(
        aqua::sim::Tick, const std::vector<std::uint64_t> &)>;
    void onIteration(IterationCallback cb)
    {
        iterationCb = std::move(cb);
    }

    //
    // Introspection.
    //

    const model::ModelSpec &modelSpec() const { return spec; }
    const KvCache &kvCache() const { return *kv; }
    LoraCache *loraCache() { return lora.get(); }
    hw::GpuId gpuId() const { return myGpu; }

    std::size_t waitingCount() const { return waiting.size(); }
    std::size_t runningCount() const { return running.size(); }
    std::size_t swappedCount() const { return swapped.size(); }
    std::uint64_t totalTokens() const { return tokensTotal; }
    std::uint64_t iterations() const { return iterCount; }
    std::uint64_t swapOutCount() const { return nSwapOuts; }
    std::uint64_t swapInCount() const { return nSwapIns; }
    /** Preemptions resolved by dropping KV (Recompute mode). */
    std::uint64_t recomputeCount() const { return nRecomputes; }

    //
    // Storage tier (all zero unless attachSsdTier()).
    //

    /** Cold sessions whose KV was parked on the tier. */
    std::uint64_t parkCount() const { return swaps->stats().parks; }
    /** Cold-session resumes served by streaming parked KV back. */
    std::uint64_t
    streamResumeCount() const
    {
        return swaps->stats().streamResumes;
    }
    /** Cold-session resumes that fell back to re-prefill. */
    std::uint64_t
    recomputeResumeCount() const
    {
        return swaps->stats().recomputeResumes;
    }
    /** Swapped-out payloads the settle pass demoted DRAM→SSD. */
    std::uint64_t
    tierDemotionCount() const
    {
        return swaps->stats().tierDemotions;
    }

    /** Swaps diverted to the fallback backend by the circuit breaker. */
    std::uint64_t
    fallbackSwapCount() const
    {
        return swaps->stats().fallbackSwaps;
    }
    /** Overload control: shed counts and the configured controllers. */
    const overload::Controls &overloadControls() const { return controls; }
    /** Sharing-path counters (all zero unless cfg.prefixCache). */
    const PrefixCacheEngineStats &
    prefixEngineStats() const
    {
        return prefixStats;
    }

    /** Read-path integrity counters (zero in fault-free runs). */
    const IntegrityEngineStats &
    integrityStats() const
    {
        return integrity.stats();
    }

    /** Bytes written to / read from the offload backend (swaps). */
    std::uint64_t
    offloadWriteBytes() const
    {
        return swaps->stats().writeBytes;
    }
    std::uint64_t offloadReadBytes() const { return swaps->stats().readBytes; }

    /** Metrics of finished requests, completion order. */
    const std::vector<workload::RequestMetrics> &
    finished() const
    {
        return finishedMetrics;
    }

    /** (time, tokens) series: tokens produced per iteration. */
    const stats::TimeSeries &tokenSeries() const { return tokens; }

    /** (time, bytes) series: HBM not used by this engine. */
    const stats::TimeSeries &freeMemorySeries() const { return freeMem; }

  private:
    void scheduleStep(aqua::sim::Tick when);
    void step();

    /** Feed AQUA-LIB's northbound interface; apply pool deltas. */
    void doInform();

    /** Record the engine-external free-memory view. */
    void recordFreeMemory();

    /** Preempt a running sequence: page its KV out through the swap
     *  store, or drop it to recompute later. */
    void swapOutSeq(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Page a swapped sequence back in. @return progress made. */
    bool swapInSeq(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Move a waiting sequence to Running. @return success. */
    bool admitSeq(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Finish bookkeeping for a sequence at @p when. */
    void finishSeq(Sequence *s, aqua::sim::Tick when);

    /** Drop a waiting sequence unserved (admission/brownout shed). */
    void shedSeq(Sequence *s, overload::ShedReason reason,
                 aqua::sim::Tick when);

    /** Release the LoRA adapter pin, if held. */
    void releaseAdapter(Sequence *s);

    /** Record final metrics at @p when (finish or shed). */
    void retire(Sequence *s, aqua::sim::Tick when);

    /** Move a preempted sequence to waiting to re-prefill it all. */
    void requeueForRecompute(Sequence *s, std::vector<Sequence *> &from);

    /** The queues and offload-path state overload control reads. */
    overload::QueueSnapshot queueSnapshot(aqua::sim::Tick now) const;

    /** A KV stream landed: re-run scheduling now. */
    void wake();

    hw::Server &server;
    hw::GpuId myGpu;
    model::ModelSpec spec;
    model::PerfModel perf;
    VllmEngineConfig cfg;
    std::unique_ptr<SchedulerPolicy> policy;
    OffloadBackend &backend;
    /** backend is an AQUA consumer (fixed, so not re-read per step). */
    bool aquaBackend;
    core::AquaLib *aquaLib = nullptr;

    overload::Controls controls;

    /** Weights + runtime overhead reservation. */
    std::optional<aqua::mem::Region> weightsRegion;
    std::unique_ptr<LoraCache> lora;
    std::unique_ptr<KvCache> kv;

    std::vector<std::unique_ptr<Sequence>> all;
    std::vector<Sequence *> waiting;
    std::vector<Sequence *> running;
    std::vector<Sequence *> swapped;

    // step()'s per-iteration batches, kept so steady-state iterations
    // allocate nothing. step() is not re-entrant (it only ever runs
    // from the one pending step event), so one set suffices.
    std::vector<Sequence *> prefillBatch;
    std::vector<std::pair<Sequence *, std::uint64_t>> prefillWork;
    std::vector<Sequence *> decodeBatch;

    CompletionCallback completionCb;
    IterationCallback iterationCb;
    std::vector<workload::RequestMetrics> finishedMetrics;

    bool stepPending = false;
    std::uint64_t iterCount = 0;
    std::uint32_t itersSinceInform = 0;
    std::uint32_t itersSinceRespond = 0;
    std::uint32_t itersSinceSettle = 0;
    std::uint32_t tokensIntoSlice = 0;
    bool needResched = true;
    std::uint64_t arrivalsSinceInform = 0;
    std::uint64_t tokensTotal = 0;
    std::uint64_t nSwapOuts = 0;
    std::uint64_t nSwapIns = 0;
    std::uint64_t nRecomputes = 0;

    PrefixCacheEngineStats prefixStats;
    KvIntegrity integrity;
    /** Every prefix-cache decision (empty unless cfg.prefixCache);
     *  destroyed before the counters. */
    std::optional<PrefixCache> prefix;
    /** Where offloaded KV lives (after kv, destroyed before it). */
    std::unique_ptr<SwapStore> swaps;

    stats::TimeSeries tokens;
    stats::TimeSeries freeMem;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_VLLM_ENGINE_HH
