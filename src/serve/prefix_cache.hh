/**
 * @file
 * PrefixCache: every prefix-cache decision of one serving engine —
 * what prefix a sequence gets at admission, what it publishes, and
 * which peers hold prefix KV it could reuse instead of re-prefilling.
 */

#ifndef AQUA_SERVE_PREFIX_CACHE_HH
#define AQUA_SERVE_PREFIX_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "cluster/prefix_registry.hh"
#include "hw/fabric.hh"
#include "model/perf_model.hh"
#include "overload/controls.hh"
#include "serve/kv_cache.hh"
#include "serve/kv_integrity.hh"
#include "serve/sequence.hh"
#include "serve/transfer_plan.hh"
#include "trace/trace.hh"

namespace aqua::serve {

struct VllmEngineConfig;
struct PrefixCacheEngineStats;

/**
 * The prefix cache of one engine's GPU. Locally, a sequence's token
 * chain matches blocks resident in the KvCache's prefix index: full
 * blocks are shared, a partial tail is forked copy-on-write. With a
 * registry attached, the cluster prefix registry names GPUs of the
 * scale-up domain homing a chain: an admission whose local match fell
 * short borrows the home's blocks in place or streams a local copy
 * over NVLink, and this GPU's resident chains are published for the
 * others. With a fabric attached, the federation directory names a
 * chain homed on another server: a fresh arrival streams it over the
 * fabric while it waits, when that beats recomputing. The engine holds one whenever cfg.prefixCache is set.
 */
class PrefixCache
{
  public:
    /** Counters go to @p stats, read-path integrity checks to
     *  @p integrity; @p controls gates publishing. Every argument is
     *  non-owning and must outlive this object. */
    PrefixCache(hw::Server &server, hw::GpuId gpu,
                const VllmEngineConfig &cfg, KvCache &kv,
                PrefixCacheEngineStats &stats, KvIntegrity &integrity,
                const overload::Controls &controls);

    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    /** Detaches the registry (see attachRegistry()). */
    ~PrefixCache();

    /**
     * Attach the cluster prefix registry and the AquaLib carrying this
     * GPU's REST access to it: register this GPU's RegistryAgent and
     * observe the KvCache's evictions. An earlier registry is detached
     * first, fabric included: every chain this GPU advertised is
     * unwound (the registry promotes a replica or invalidates). Null
     * arguments only detach.
     */
    void attachRegistry(cluster::PrefixRegistry *registry,
                        core::AquaLib *lib);

    /** Attach the inter-server fabric (after the registry): it
     *  carries KV streams to @p serverIndex, @p lib the /federation
     *  REST access; @p perf prices recompute for the stream-vs-recompute
     *  check. */
    void attachFabric(hw::Fabric &fabric, std::uint32_t serverIndex,
                      core::AquaLib &lib, const model::PerfModel &perf);

    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /** Give @p s the token chain every prefix query of it reads. */
    void
    track(Sequence *s) const
    {
        s->chain = TokenChain(tokenFnFor(s->request), kv.tokensPerBlock());
    }

    /**
     * Start a cross-server prefix stream for a fresh arrival whose
     * chain no GPU in this scale-up domain holds: directory lookup,
     * signature check, cost-model verdict, home admission, then the
     * windowed fabric stream. On success @p s waits on its stream
     * handle; @p landed runs when the stream ends (validated, invalid
     * or wound down cancelled).
     */
    void beginFetch(Sequence *s, std::function<void()> landed);

    /**
     * The prefix @p s gets at admission: the resident blocks matching
     * its context (one token short of it, so one is always computed)
     * with a partial tail forked copy-on-write, or else a longer peer
     * chain, borrowed in place (into s->lead) or streamed into local
     * blocks. The caller owns the returned block references; transfers
     * extend @p transfersDone.
     */
    KvCache::PrefixAcquire acquire(Sequence *s,
                                   aqua::sim::Tick &transfersDone);

    /** Admission failed after acquire(): free @p grant's blocks and
     *  release the borrowed lead. */
    void abandon(Sequence *s, const KvCache::PrefixAcquire &grant);

    /** @p s was admitted with the grant's @p grantBlocks blocks
     *  (@p grantTokens tokens) leading s->blocks, after a stream that
     *  delivered @p streamed tokens: count the hit by block origin (a
     *  federation stream's blocks are tagged RemoteServer first). */
    void countHit(const Sequence *s, std::size_t grantBlocks,
                  std::uint64_t grantTokens, std::uint32_t streamed);

    /**
     * Publish @p s's computed KV into the local index and, with a
     * registry, register its shareable chain boundaries, indexing only
     * what no other GPU homes. @p atFinish adds the full-context
     * boundary of conversation streams. Nothing is published under
     * brownout at NoCachePublish or above.
     */
    void publish(Sequence *s, bool atFinish = false);

    /** Release a borrowed lead (unpin the registry lease). */
    void releaseLead(Sequence *s);

    /** releaseLead(), then drop the replica chains backed by @p s's
     *  blocks (call before the sequence frees them). */
    void release(Sequence *s);

    /** Whether @p s's borrowed lead was lost to a home-GPU failure
     *  (counted); the caller must drop the sequence's KV. */
    bool leadLost(const Sequence *s);

    /** Peer-link time a decode step of @p batch spends attending its
     *  borrowed leads (sparse reads touch only a fraction). */
    aqua::sim::Tick leadReadTime(const std::vector<Sequence *> &batch);

  private:
    /** A chain this GPU published to the registry. */
    struct Chain
    {
        /** Resident blocks backing the chain, chain order (all full). */
        std::vector<aqua::mem::BlockId> blocks;
        std::uint64_t verify = 0;
        /** Request whose token stream names the chain contents. */
        workload::Request req;
        /** Replica chains only: the live sequence whose blocks back
         *  the (un-indexed) copy; home chains are index-owned. */
        const Sequence *owner = nullptr;
    };

    /** Registry read for a local full-block match @p grant that fell
     *  short: lookup, signature check, pin, then borrow the home's
     *  blocks in place (short chains) or stream a copy into @p grant. */
    void extendFromRegistry(Sequence *s, KvCache::PrefixAcquire &grant,
                            aqua::sim::Tick &transfersDone);

    /** Shareable chain boundaries (in full blocks, ascending) of
     *  @p s's resident context: the declared preamble, plus the full
     *  context for conversation streams when @p atFinish. */
    std::vector<std::size_t> chainBoundaries(const Sequence *s,
                                             bool atFinish) const;

    /** Candidate chain boundaries of @p s's context covering more
     *  than @p localFull blocks, longest first (dense scan for
     *  conversation streams, plus the declared preamble). */
    std::vector<core::AquaLib::PrefixCandidate>
    candidates(const Sequence *s, std::size_t localFull) const;

    /** Registry callback: pin/unpin a home chain's blocks. False for
     *  a chain this GPU does not home (the registry's record is stale,
     *  e.g. an eviction notice was lost). */
    bool setPinned(std::uint64_t key, bool pinned);

    /** Registry callback: adopt a replica chain as the new home. False
     *  for a chain this GPU holds no replica of (as above). */
    bool promote(std::uint64_t key);

    /** Record @p c as the home chain under @p key, replacing any
     *  earlier record, and keep homeKeysByBlock in step. */
    void setHomeChain(std::uint64_t key, Chain c);

    /** Drop @p key from homeKeysByBlock at each of @p blocks. */
    void unindexHomeChain(std::uint64_t key,
                          const std::vector<aqua::mem::BlockId> &blocks);

    /** KvCache eviction observer: a cached block left the index; any
     *  home chain containing it is gone from this GPU. */
    void onBlockEvicted(aqua::mem::BlockId id);

    hw::Server &server;
    hw::GpuId myGpu;
    const VllmEngineConfig &cfg;
    KvCache &kv;
    PrefixCacheEngineStats &stats;
    KvIntegrity &integrity;
    const overload::Controls &controls;
    trace::TraceLog *tracer = nullptr;

    /** The scale-up domain's registry and this GPU's REST access to
     *  it (both null until attachRegistry()). */
    cluster::PrefixRegistry *registry = nullptr;
    core::AquaLib *lib = nullptr;

    /** The fabric, this server's index on it, the /federation REST
     *  access and the recompute pricing (meaningful while fedPerf is
     *  set). */
    hw::Fabric *fabric = nullptr;
    std::uint32_t fedServer = 0;
    core::AquaLib *fedLib = nullptr;
    const model::PerfModel *fedPerf = nullptr;
    /** Carries the federation fetches into this GPU. */
    TransferPlan fetches;

    /** Chains this GPU homes (pinned on registry demand). */
    std::map<std::uint64_t, Chain> homeChains;
    /** Per block id, the keys of the home chains holding it,
     *  ascending: what an evicted block takes down, found without
     *  scanning homeChains. */
    std::vector<std::vector<std::uint64_t>> homeKeysByBlock;
    /** Chains homed elsewhere that this GPU could adopt. */
    std::map<std::uint64_t, Chain> replicaChains;
    /** Chain keys the registry rejected as cluster-wide collisions
     *  (stay engine-local; never re-published). */
    std::set<std::uint64_t> collisionChains;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_PREFIX_CACHE_HH
