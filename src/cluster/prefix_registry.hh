/**
 * @file
 * Coordinator-hosted cluster prefix registry.
 *
 * The CoW prefix cache (serve/PrefixIndex) dedups a hot shared prefix
 * *within* one engine; across a scale-up domain every consumer GPU
 * still rematerialises its own copy. The registry tracks which prefix
 * chains (by the engines' dual-rolling-hash keys) are resident on
 * which GPU, designates a single *home replica* per chain per domain,
 * and hands out lease-style pins so the home GPU cannot donate or
 * evict blocks a remote consumer is actively reading over NVLink.
 *
 * The registry is pure control-plane state: engines talk to it over
 * the coordinator REST surface (see registry_rest.hh), and it calls
 * back into registered per-GPU agents (RegistryAgent) to pin blocks
 * on the home engine or to promote a replica to home after a failure
 * or eviction.
 */

#ifndef AQUA_CLUSTER_PREFIX_REGISTRY_HH
#define AQUA_CLUSTER_PREFIX_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <variant>
#include <vector>

#include "hw/gpu.hh"
#include "json/json.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace aqua::recovery {
template <class Record>
class StateJournal;
} // namespace aqua::recovery

namespace aqua::cluster {

/**
 * Callbacks into the engine that owns a GPU's prefix blocks. The
 * registry invokes them synchronously while handling REST calls;
 * both return false when the chain is no longer resident there.
 */
struct RegistryAgent
{
    /** Pin (or release) the chain's blocks on this GPU. */
    std::function<bool(std::uint64_t key, bool pinned)> setPinned;
    /** Become home for a chain this GPU holds as a replica. */
    std::function<bool(std::uint64_t key)> promote;
};

/** Outcome role of a publish. */
enum class PublishRole
{
    /** First publisher (or re-publish by the current home): this GPU
     *  is the chain's designated resident copy. */
    Home,
    /** The chain is already homed elsewhere; the publisher should not
     *  retain its own cache-only copy. */
    Replica,
    /** Primary keys matched but verification hashes differ: a
     *  cluster-wide hash collision. The publisher falls back to
     *  engine-local caching and the registry ignores the chain. */
    Collision,
};

struct PublishResult
{
    PublishRole role = PublishRole::Home;
    hw::GpuId home = hw::hostDramId;
};

/** One candidate (key, verify) pair at a full-block chain boundary. */
struct CandidateKey
{
    std::uint64_t key = 0;
    std::uint64_t verify = 0;
    std::uint32_t blocks = 0;
};

struct LookupResult
{
    bool found = false;
    std::uint64_t key = 0;
    std::uint64_t verify = 0;
    hw::GpuId home = hw::hostDramId;
    std::uint32_t blocks = 0;
    std::uint64_t tokens = 0;
    std::uint64_t bytes = 0;
    /** FNV-1a content signature over the whole chain; consumers check
     *  it against their own prompt before trusting the match. */
    std::uint64_t chainSig = 0;
};

struct PinResult
{
    bool ok = false;
    /** Lease id to pass to unpin(). */
    std::uint64_t pin = 0;
    hw::GpuId home = hw::hostDramId;
};

/**
 * Observer of the registry's chain lifecycle, for services layered on
 * top of it (the cross-server federation directory advertises local
 * home chains to peers and must tombstone them the instant they stop
 * being servable). Fired on live mutations only — journal replay and
 * snapshot restore stay silent, since a recovering observer replays
 * its own journal.
 */
struct ChainObserver
{
    /** A chain gained a home on this server (first publish, or a
     *  fresh publisher taking over from a dead home). */
    std::function<void(std::uint64_t key, std::uint64_t verify,
                       std::uint32_t blocks, std::uint64_t tokens,
                       std::uint64_t bytes, std::uint64_t chainSig)>
        published;
    /** The chain lost its last local copy (evict/failure with no
     *  replica left): it is no longer servable from this server. */
    std::function<void(std::uint64_t key)> invalidated;
};

/** What evictNotify() did about the chain. */
enum class EvictAction
{
    /** Not the home copy (or unknown chain): registry state pruned. */
    Ignored,
    /** A replica took over as home. */
    Promoted,
    /** No replica left: the chain is gone from the registry. */
    Invalidated,
};

struct PrefixRegistryStats
{
    std::uint64_t publishes = 0;
    std::uint64_t replicaPublishes = 0;
    std::uint64_t collisions = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t pins = 0;
    std::uint64_t unpins = 0;
    std::uint64_t pinRejects = 0;
    std::uint64_t evictNotices = 0;
    std::uint64_t promotions = 0;
    std::uint64_t invalidations = 0;
    /** Pins force-released by a home failure or eviction. */
    std::uint64_t brokenPins = 0;
};

/**
 * The registry proper. One instance per scale-up domain, colocated
 * with the coordinator.
 */
class PrefixRegistry
{
  public:
    /**
     * Record a chain resident on @p gpu.
     *
     * The first publisher becomes the chain's home; later publishers
     * of the same (key, verify) are replicas; a verify mismatch is a
     * cluster-wide collision and the chain stays engine-local.
     */
    PublishResult publish(hw::GpuId gpu, std::uint64_t key,
                          std::uint64_t verify, std::uint32_t blocks,
                          std::uint64_t tokens, std::uint64_t bytes,
                          std::uint64_t chainSig, aqua::sim::Tick now);

    /**
     * Find the longest registered chain matching one of
     * @p candidates (ordered longest-first). Dead homes are promoted
     * or invalidated on the way; verify mismatches fall through to
     * the next (shorter) candidate.
     */
    LookupResult lookup(hw::GpuId gpu,
                        const std::vector<CandidateKey> &candidates,
                        aqua::sim::Tick now);

    /**
     * Take a read lease on a chain for @p consumer. While any pin is
     * active the home engine keeps the chain's blocks pinned
     * (non-evictable, non-donatable).
     */
    PinResult pin(hw::GpuId consumer, std::uint64_t key,
                  std::uint64_t verify, aqua::sim::Tick now);

    /** Release a lease; idempotent (stale ids are ignored). */
    void unpin(std::uint64_t pin, aqua::sim::Tick now);

    /**
     * A GPU dropped its copy of a chain (cache eviction, shrink,
     * engine teardown). Home copies promote a replica or invalidate;
     * replica copies are pruned.
     */
    EvictAction evictNotify(hw::GpuId gpu, std::uint64_t key,
                            std::uint64_t verify, aqua::sim::Tick now);

    /**
     * A GPU went dark: break its consumers' pins, prune its replicas
     * and promote or invalidate every chain it homed. Wired to
     * fault::FaultInjector::setGpuFailObserver by the benches.
     */
    void onGpuFailed(hw::GpuId gpu, aqua::sim::Tick now);

    /** Register the engine-side callbacks for a GPU. */
    void setAgent(hw::GpuId gpu, RegistryAgent agent);
    void clearAgent(hw::GpuId gpu);

    /** Liveness oracle for home GPUs (e.g. !Topology::gpuFailed). */
    void
    setAliveFn(std::function<bool(hw::GpuId)> fn)
    {
        alive = std::move(fn);
    }

    /** Optional event log (registry_home/unhome, promote, ...). */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /** Install (or clear, with {}) the chain lifecycle observer. */
    void setChainObserver(ChainObserver obs)
    {
        observer = std::move(obs);
    }

    /**
     * Side-effect-free probe of one chain: no stats, no promotion of
     * a dead home. Used by the federation's home-side fetch
     * validation, which must not mutate registry state while merely
     * checking that an in-flight stream's source is still intact.
     */
    LookupResult peek(std::uint64_t key, std::uint64_t verify) const;

    /**
     * Test hook: AND every primary key with @p mask to force
     * cluster-wide collisions (verification hashes still differ).
     */
    void setKeyMask(std::uint64_t mask) { keyMask = mask; }

    const PrefixRegistryStats &stats() const { return counters; }

    /** Outstanding read leases across all chains. */
    std::size_t activePins() const;
    /** Leases held by one consumer GPU. */
    std::size_t pinsHeldBy(hw::GpuId consumer) const;
    /** Registered chains (homes only; collisions are not entered). */
    std::size_t size() const { return chains.size(); }
    /** Home GPU of a chain, or hw::hostDramId when unknown. */
    hw::GpuId homeOf(std::uint64_t key) const;
    /** Cluster-wide publish refcount of a chain (0 = unknown). */
    std::uint32_t chainRefs(std::uint64_t key) const;

    //
    // Crash recovery (src/recovery). Every change to the chain and pin
    // maps is one Record, apply()d live and on replay alike; live
    // methods only decide (ask agents, walk replicas).
    //

    /** A chain gained a home (first publisher, or a fresh publisher
     *  after its dead home's chain was invalidated). */
    struct Home
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        std::uint32_t blocks = 0;
        std::uint64_t tokens = 0;
        std::uint64_t bytes = 0;
        std::uint64_t chainSig = 0;
        hw::GpuId home = hw::hostDramId;
    };
    /** @p gpu published a copy of a chain homed elsewhere. */
    struct Replica
    {
        std::uint64_t key = 0;
        hw::GpuId gpu = hw::hostDramId;
    };
    /** @p gpu dropped its replica copy. */
    struct ReplicaDrop
    {
        std::uint64_t key = 0;
        hw::GpuId gpu = hw::hostDramId;
    };
    /** The home died or evicted and the replica @p home took over:
     *  pins break, and every replica ahead of it in publish order
     *  (refused or dead) is dropped with it. */
    struct Promote
    {
        std::uint64_t key = 0;
        hw::GpuId home = hw::hostDramId;
    };
    /** No copy left: pins break and the chain is gone. */
    struct Invalidate
    {
        std::uint64_t key = 0;
    };
    /** Read lease @p pin on a chain, held by @p gpu. */
    struct Pin
    {
        std::uint64_t pin = 0;
        std::uint64_t key = 0;
        hw::GpuId gpu = hw::hostDramId;
    };
    struct Unpin
    {
        std::uint64_t pin = 0;
    };
    using Record = std::variant<Home, Replica, ReplicaDrop, Promote,
                                Invalidate, Pin, Unpin>;
    using Journal = aqua::recovery::StateJournal<Record>;

    /** Attach (or detach, with nullptr) the write-ahead journal. */
    void attachJournal(Journal *j);

    /** Full-state export, suitable as a journal snapshot. */
    json::Value exportState() const;

    /** Drop all chain/pin state; agents, liveness oracle, tracer and
     *  stats counters survive (they are process-local wiring). */
    void reset();

    /** Restore a full-state export taken by exportState(). */
    void restoreState(const json::Value &snapshot);

    /** Apply one record: the only change to journaled state, live
     *  and on replay (never re-journaled). */
    void apply(const Record &r);

    /**
     * Freeze mutating REST traffic while a resync is in flight:
     * registry_rest maps a frozen registry to a retryable 503, so
     * engine evictNotify/publish calls racing the coordinator restart
     * back off instead of mutating half-restored state.
     */
    void setFrozen(bool f) { frozenFlag = f; }
    bool frozen() const { return frozenFlag; }

    struct ResyncSummary
    {
        /** Chains whose home re-confirmed residency. */
        std::size_t verified = 0;
        /** Orphaned homes promoted from a replica (Harvest-style). */
        std::size_t rehomed = 0;
        /** Chains with no surviving copy; consumers recompute. */
        std::size_t invalidated = 0;
    };

    /**
     * After journal replay, re-verify every chain against the engines
     * that survived: each home must re-confirm residency (re-asserting
     * its pin state); homes that vanished with the crash window are
     * promoted from a replica or invalidated to recompute.
     */
    ResyncSummary resyncSurvivors(aqua::sim::Tick now);

    /**
     * Pin-residency audit for the chaos harness: every chain with
     * active pins must have a live, registered home. Returns
     * human-readable violations; empty = consistent.
     */
    std::vector<std::string> auditInvariants() const;

  private:
    struct Chain
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        std::uint32_t blocks = 0;
        std::uint64_t tokens = 0;
        std::uint64_t bytes = 0;
        std::uint64_t chainSig = 0;
        hw::GpuId home = hw::hostDramId;
        /** Non-home GPUs that also published the chain. */
        std::vector<hw::GpuId> replicas;
        /** Active read leases: pin id -> consumer GPU. */
        std::map<std::uint64_t, hw::GpuId> pins;
    };

    bool gpuAlive(hw::GpuId gpu) const;
    /** Home of @p chain died or evicted: promote or invalidate.
     *  @return false when the chain was erased. */
    bool promoteOrInvalidate(Chain &chain, aqua::sim::Tick now);
    void breakPins(Chain &chain);
    /** Release lease @p pin; the chain's last one unpins the home's
     *  blocks. @return false for an unknown (stale) id. */
    bool dropPin(std::uint64_t pin);
    /** Apply @p r, then journal it (if a journal is attached). */
    void commit(Record r);
    void traceChain(aqua::sim::Tick now, const char *category,
                    const Chain &chain);
    void traceChain(aqua::sim::Tick now, const char *category,
                    const Chain &chain, hw::GpuId home,
                    std::size_t replicas);

    std::unordered_map<std::uint64_t, Chain> chains;
    std::unordered_map<std::uint64_t, std::uint64_t> pinChain;
    std::map<hw::GpuId, RegistryAgent> agents;
    ChainObserver observer;
    std::function<bool(hw::GpuId)> alive;
    trace::TraceLog *tracer = nullptr;
    std::uint64_t keyMask = ~0ull;
    std::uint64_t nextPin = 1;
    PrefixRegistryStats counters;
    Journal *journal = nullptr;
    bool frozenFlag = false;
};

} // namespace aqua::cluster

#endif // AQUA_CLUSTER_PREFIX_REGISTRY_HH
