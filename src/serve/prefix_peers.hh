/**
 * @file
 * PrefixPeers: what a serving engine knows about peers holding prefix
 * KV it could reuse instead of re-prefilling.
 */

#ifndef AQUA_SERVE_PREFIX_PEERS_HH
#define AQUA_SERVE_PREFIX_PEERS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "cluster/prefix_registry.hh"
#include "federation/cost_model.hh"
#include "hw/fabric.hh"
#include "serve/kv_cache.hh"
#include "serve/kv_integrity.hh"
#include "serve/sequence.hh"
#include "trace/trace.hh"

namespace aqua::serve {

struct VllmEngineConfig;
struct PrefixCacheEngineStats;

/**
 * The registry and federation paths of one engine's GPU. Inside the
 * scale-up domain, the cluster prefix registry names GPUs homing a
 * chain: an admission whose local match fell short borrows the home's
 * blocks in place or streams a local copy over NVLink, and this GPU's
 * resident chains are published for the others. Across servers, the
 * federation directory names a chain homed on another server: a fresh
 * arrival streams it over the fabric while it waits, when the cost
 * model says that beats recomputing. The engine holds one only while
 * the registry path is live (cfg.clusterPrefix and
 * VllmEngine::attachClusterPrefix()).
 */
class PrefixPeers
{
  public:
    /**
     * Register this GPU's RegistryAgent (pin/promote callbacks) with
     * @p registry and observe @p kv's cache evictions. Counters go to
     * @p stats, read-path integrity checks to @p integrity. Every
     * argument is non-owning and must outlive this object.
     */
    PrefixPeers(hw::Server &server, hw::GpuId gpu,
                const VllmEngineConfig &cfg, KvCache &kv,
                PrefixCacheEngineStats &stats, KvIntegrity &integrity,
                cluster::PrefixRegistry &registry, core::AquaLib &lib,
                trace::TraceLog *tracer);

    PrefixPeers(const PrefixPeers &) = delete;
    PrefixPeers &operator=(const PrefixPeers &) = delete;

    /** Unwind every chain this GPU advertised (the registry promotes
     *  a surviving replica or invalidates), then clear the agent. */
    ~PrefixPeers();

    /**
     * Attach the inter-server fabric: @p fabric carries the KV
     * streams, @p serverIndex is this server on it and @p lib carries
     * the /federation REST access; @p perf prices recompute for the
     * cost model.
     */
    void attachFabric(hw::Fabric &fabric, std::uint32_t serverIndex,
                      core::AquaLib &lib, const model::PerfModel &perf);

    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /**
     * Register @p s's shareable chain boundaries with the registry and
     * publish its KV into the local index, retaining locally only what
     * no other GPU homes. @p atFinish adds the full-context boundary
     * of conversation streams.
     */
    void publish(Sequence *s, bool atFinish);

    /**
     * Remote read for an admission whose local prefix match @p acq
     * fell short: lookup, signature check, pin, then borrow the home's
     * blocks in place (short chains) or stream a local copy into
     * @p acq. Transfers extend @p transfersDone.
     */
    void acquire(Sequence *s, KvCache::PrefixAcquire &acq,
                 aqua::sim::Tick &transfersDone);

    /**
     * Start a cross-server prefix stream for a fresh arrival whose
     * chain no GPU in this scale-up domain holds: directory lookup,
     * signature check, cost-model verdict, home admission, then the
     * fabric stream. On success @p s waits with streamPending set;
     * @p landed runs when the stream ends (validated or not).
     */
    void beginFetch(Sequence *s, std::function<void()> landed);

    /** Release a borrowed remote lead (unpin the registry lease). */
    void releaseLead(Sequence *s);

    /** releaseLead(), then drop the replica chains backed by @p s's
     *  blocks (call before the sequence frees them). */
    void release(Sequence *s);

    /** Peer-link time a decode step spends attending @p leadBytes of
     *  borrowed leads (sparse reads touch only a fraction). */
    aqua::sim::Tick decodeReadTime(std::uint64_t leadBytes);

  private:
    /** A chain this GPU published to the registry. */
    struct Chain
    {
        /** Resident blocks backing the chain, chain order. */
        std::vector<aqua::mem::BlockId> blocks;
        std::uint64_t tokens = 0;
        std::uint64_t verify = 0;
        /** Request whose token stream names the chain contents. */
        workload::Request req;
        /** Replica chains only: the live sequence whose blocks back
         *  the (un-indexed) copy; home chains are index-owned. */
        const Sequence *owner = nullptr;
    };

    /** Shareable chain boundaries (in full blocks, ascending) of a
     *  sequence's context: the declared preamble, plus the full
     *  context for conversation streams when @p atFinish. */
    std::vector<std::size_t> chainBoundaries(const Sequence *s,
                                             std::size_t maxBlocks,
                                             bool atFinish) const;

    /** Candidate chain boundaries of @p s's context covering more
     *  than @p localFull blocks, longest first (dense scan for
     *  conversation streams, plus the declared preamble). */
    std::vector<core::AquaLib::PrefixCandidate>
    candidates(const Sequence *s, std::size_t localFull) const;

    /** Registry callback: pin/unpin a home chain's blocks. */
    bool setPinned(std::uint64_t key, bool pinned);

    /** Registry callback: adopt a replica chain as the new home. */
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
    cluster::PrefixRegistry &registry;
    core::AquaLib &lib;
    trace::TraceLog *tracer;

    hw::Fabric *fabric = nullptr;
    core::AquaLib *fedLib = nullptr;
    /** This engine's server index on the fabric. */
    std::uint32_t fedServer = 0;
    std::unique_ptr<federation::FederationCostModel> fedCost;

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

#endif // AQUA_SERVE_PREFIX_PEERS_HH
