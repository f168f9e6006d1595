/**
 * @file
 * Cross-server prefix federation directory.
 *
 * The cluster prefix registry (cluster/PrefixRegistry) keeps one
 * resident shared-prefix KV copy per scale-up domain — but registries
 * are siloed per server, so a hot system prompt published on server A
 * is re-prefilled from scratch on server B. The FederationDirectory
 * breaks the silo at the control plane: each server's directory
 * advertises its registry's *home* chains (keyed by the same dual
 * rolling hashes) to every peer server, so a consumer can discover a
 * remote copy and weigh streaming it over the inter-server fabric
 * against local re-prefill (serve::PrefixCache::beginFetch).
 *
 * Consistency model — Harvest-style opportunistic, not transactional:
 *
 *  - Advertisements are versioned per origin server. A chain gaining
 *    a home bumps the version and pushes the advert to each peer
 *    after a gossip delay; invalidation (evict, GPU failure) pushes a
 *    tombstone the same way. Peers apply an advert only when its
 *    version is newer than what they hold.
 *  - Pushes ride the peer coordinator's REST router, so a crashed or
 *    unreachable coordinator silently loses them. A periodic
 *    anti-entropy round repairs losses within one period, digest
 *    first: each directory keeps a 64-bit digest of its local table
 *    (the wrapping sum of advertHash(key, version) over every entry,
 *    tombstones included) and one per origin over its remote view,
 *    both updated in O(1) at every mutation. A round sends each peer
 *    one digest; only a peer whose view of this origin differs — or
 *    that cannot answer (outage, crash, dropped message, frozen) —
 *    gets the full local table, exactly as a push. Matching digests
 *    mean (barring a 64-bit hash collision) the peer already holds
 *    every (key, version) the full table would carry, so the resend
 *    would be all stale no-ops: views converge to the same state as
 *    under full-table resends, while an agreeing round costs
 *    O(peers) instead of O(table x peers).
 *  - Remote fetches are granted by the home server (admission-capped
 *    — a home serves at most maxRemoteConsumers concurrent remote
 *    streams, so federation load cannot starve local serving) but the
 *    chain is NOT pinned: the home stays free to evict it mid-stream.
 *    The consumer validates the fetch ticket when the stream lands —
 *    chain still present, advert version unchanged — and falls back
 *    to recompute when validation fails. Stale reads are impossible
 *    (the version check catches every mutation); stalls are
 *    impossible (the stream always completes, only its payload may be
 *    declared worthless).
 *  - Local adverts are journal-backed: each change to them is an
 *    Advert or Tombstone record, applied by the same apply() live
 *    and on replay (recovery/state_journal.hh), so they replay
 *    exactly after a coordinator_crash. Remote views are soft state
 *    refilled by the peers' next anti-entropy rounds (an emptied
 *    view's digest mismatches, so one round refills it).
 */

#ifndef AQUA_FEDERATION_DIRECTORY_HH
#define AQUA_FEDERATION_DIRECTORY_HH

#include <cstdint>
#include <map>
#include <variant>
#include <vector>

#include "aqua/rest.hh"
#include "cluster/prefix_registry.hh"
#include "json/json.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace aqua::recovery {
template <class Record>
class StateJournal;
} // namespace aqua::recovery

namespace aqua::federation {

/** Directory tunables. */
struct DirectoryConfig
{
    /** This server's id on the fabric. */
    std::uint32_t serverId = 0;
    /** Delay before a changed advert reaches each peer. */
    aqua::sim::Tick gossipDelay = 100 * aqua::sim::nsPerUs;
    /** Anti-entropy (digest, then full table on mismatch) period. */
    aqua::sim::Tick antiEntropyPeriod = 50 * aqua::sim::nsPerMs;
    /**
     * Harvest-style admission cap: concurrent remote consumers this
     * server will serve as a stream source. Further fetch_begin
     * requests are refused and the consumers re-prefill locally.
     */
    std::uint32_t maxRemoteConsumers = 2;
};

/** One versioned chain advertisement. */
struct DirectoryEntry
{
    std::uint64_t key = 0;
    std::uint64_t verify = 0;
    std::uint32_t blocks = 0;
    std::uint64_t tokens = 0;
    std::uint64_t bytes = 0;
    std::uint64_t chainSig = 0;
    /** Origin (home) server. */
    std::uint32_t server = 0;
    /** Per-origin version; higher wins. */
    std::uint64_t version = 0;
    /** True when the origin withdrew the chain. */
    bool tombstone = false;
};

/** Result of a consumer-side directory lookup. */
struct FederationLookup
{
    bool found = false;
    DirectoryEntry entry;
};

/** A home-side fetch grant (or refusal). */
struct FetchGrant
{
    bool ok = false;
    /** Refusal reason when !ok ("cap", "stale", "unreachable",
     *  "unknown_server"). */
    std::string reason;
    std::uint64_t ticket = 0;
    hw::GpuId homeGpu = hw::hostDramId;
    std::uint32_t homeServer = 0;
    std::uint32_t blocks = 0;
    std::uint64_t tokens = 0;
    std::uint64_t bytes = 0;
    std::uint64_t chainSig = 0;
};

struct DirectoryStats
{
    /** Local adverts pushed (publishes and tombstones). */
    std::uint64_t advertsPublished = 0;
    std::uint64_t tombstones = 0;
    /** Peer adverts accepted / ignored as stale. */
    std::uint64_t advertsApplied = 0;
    std::uint64_t advertsStale = 0;
    /** Gossip pushes a peer's router refused (outage/crash). */
    std::uint64_t advertsDropped = 0;
    std::uint64_t antiEntropyRounds = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Home-side fetch admissions. */
    std::uint64_t fetchGrants = 0;
    std::uint64_t fetchCapRejects = 0;
    std::uint64_t fetchStaleRejects = 0;
    /** Completed fetches by validation outcome. */
    std::uint64_t fetchValidated = 0;
    std::uint64_t fetchInvalidated = 0;

    /** Sum another directory's counters into these (fleet totals). */
    DirectoryStats &
    operator+=(const DirectoryStats &o)
    {
        advertsPublished += o.advertsPublished;
        tombstones += o.tombstones;
        advertsApplied += o.advertsApplied;
        advertsStale += o.advertsStale;
        advertsDropped += o.advertsDropped;
        antiEntropyRounds += o.antiEntropyRounds;
        lookups += o.lookups;
        hits += o.hits;
        misses += o.misses;
        fetchGrants += o.fetchGrants;
        fetchCapRejects += o.fetchCapRejects;
        fetchStaleRejects += o.fetchStaleRejects;
        fetchValidated += o.fetchValidated;
        fetchInvalidated += o.fetchInvalidated;
        return *this;
    }
};
// A counter added above must be summed in operator+= too.
static_assert(sizeof(DirectoryStats) == 14 * sizeof(std::uint64_t));

/**
 * One server's federation directory. Lives next to the coordinator
 * and its prefix registry; binds the /federation routes there
 * (federation_rest.hh).
 */
class FederationDirectory
{
  public:
    /**
     * @param sim Shared cluster simulation.
     * @param registry This server's prefix registry; its chain
     *        observer is claimed by this directory.
     * @param config Tunables (serverId must be unique per fabric).
     */
    FederationDirectory(aqua::sim::Simulation &sim,
                        cluster::PrefixRegistry &registry,
                        DirectoryConfig config = {});

    FederationDirectory(const FederationDirectory &) = delete;
    FederationDirectory &operator=(const FederationDirectory &) =
        delete;
    ~FederationDirectory();

    std::uint32_t serverId() const { return cfg.serverId; }
    const DirectoryConfig &config() const { return cfg; }
    const DirectoryStats &stats() const { return counters; }

    /**
     * Connect a peer server's coordinator router (gossip and
     * cross-server fetch control ride it, so the peer's outage and
     * crash faults apply). Call once per peer, both directions.
     */
    void addPeer(std::uint32_t serverId, core::RestRouter &router);

    /**
     * Start periodic anti-entropy: every period, run
     * antiEntropyRound(), until @p until (exclusive). The horizon
     * keeps the event queue finite for sim.run().
     */
    void startAntiEntropy(aqua::sim::Tick until);

    /**
     * Run one anti-entropy round now (also used by tests): send each
     * peer this directory's local digest (POST /federation/digest),
     * then push the full local table, advert by advert, to every peer
     * whose digest differs or whose call failed. A frozen directory
     * skips the round; an empty table sends nothing.
     */
    void antiEntropyRound();

    /**
     * One (key, version) pair's share of a table digest: a
     * splitmix64 mix of both words. Digests are wrapping sums of
     * these, so adding, replacing or dropping an entry is O(1).
     */
    static std::uint64_t advertHash(std::uint64_t key,
                                    std::uint64_t version);

    /** Digest of the local advert table, tombstones included. */
    std::uint64_t localDigest() const { return localSum; }

    /** Digest of the remote view learned from @p origin (0 if none). */
    std::uint64_t remoteDigest(std::uint32_t origin) const;

    /** Optional event log (fed_advert, fed_tombstone, ...). */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    //
    // Consumer side.
    //

    /**
     * Longest live remote advert matching one of @p candidates
     * (ordered longest-first). Own-server and tombstoned entries
     * never match; a verify mismatch falls through to the next
     * candidate.
     */
    FederationLookup
    lookup(const std::vector<cluster::CandidateKey> &candidates);

    /**
     * Ask @p entry's home server to admit a fetch: dispatches
     * POST /federation/fetch_begin on the home coordinator's router.
     * Refused when the home is unreachable, over its admission cap,
     * or no longer holds the chain. A "stale" refusal tombstones the
     * learned advert; an "unreachable" one forgets it, so the home's
     * next anti-entropy round (its digest now differs) restores it.
     */
    FetchGrant requestFetch(const DirectoryEntry &entry);

    /**
     * Report a completed stream to the home server
     * (POST /federation/fetch_end) and learn whether the payload is
     * trustworthy: the chain must still be registered and its advert
     * version unchanged since the grant. false = the home mutated the
     * chain mid-stream; the consumer must discard and recompute.
     */
    bool finishFetch(std::uint32_t homeServer, std::uint64_t ticket);

    //
    // Home side (invoked via /federation/* routes).
    //

    /** Apply one gossiped advert from a peer. */
    void applyAdvert(const DirectoryEntry &entry);

    /** Learned peer adverts: key -> origin server -> latest. */
    using RemoteView =
        std::map<std::uint64_t, std::map<std::uint32_t, DirectoryEntry>>;

    /** The remote view, tombstones included (read-only). */
    const RemoteView &remoteView() const { return remote; }

    /** Admit (or refuse) a remote fetch of a locally homed chain. */
    FetchGrant fetchBegin(std::uint64_t key, std::uint64_t verify,
                          std::uint32_t consumerServer);

    /** Close a fetch ticket; @return payload validity. */
    bool fetchEnd(std::uint64_t ticket);

    /** Remote streams currently being served (admission load). */
    std::size_t activeFetches() const { return fetches.size(); }

    /** Live (non-tombstoned) remote adverts held. */
    std::size_t remoteAdvertCount() const;

    /** Local adverts held (including tombstones). */
    std::size_t localAdvertCount() const { return local.size(); }

    //
    // Crash recovery (src/recovery) — mirrors PrefixRegistry: every
    // change to the local adverts and the version source is one
    // Record, apply()d live and on replay alike.
    //

    /** A chain gained a local home: its new advert. */
    struct Advert
    {
        DirectoryEntry entry;
    };
    /** A local chain was withdrawn at @p version. */
    struct Tombstone
    {
        std::uint64_t key = 0;
        std::uint64_t version = 0;
    };
    using Record = std::variant<Advert, Tombstone>;
    using Journal = aqua::recovery::StateJournal<Record>;

    /** Attach (or detach, with nullptr) the write-ahead journal. */
    void attachJournal(Journal *j);

    /** Full-state export of the authoritative local adverts. */
    json::Value exportState() const;

    /** Drop all advert/fetch state; peers, config and stats stay. */
    void reset();

    /** Restore a full-state export taken by exportState(). */
    void restoreState(const json::Value &snapshot);

    /** Apply one record: the only change to journaled state, live
     *  and on replay (never re-journaled). */
    void apply(const Record &r);

    /** Freeze mutating traffic during a coordinator crash window:
     *  federation_rest maps a frozen directory to a retryable 503. */
    void setFrozen(bool f) { frozenFlag = f; }
    bool frozen() const { return frozenFlag; }

    /** Serialize an advert to its wire/snapshot JSON form. */
    static json::Value advertToJson(const DirectoryEntry &e);

    /** Parse an advert from its wire/snapshot JSON form. */
    static DirectoryEntry advertFromJson(const json::Value &v);

  private:
    struct Peer
    {
        std::uint32_t serverId = 0;
        core::RestRouter *router = nullptr;
    };

    struct ActiveFetch
    {
        std::uint64_t key = 0;
        std::uint64_t verify = 0;
        /** Local advert version at grant time. */
        std::uint64_t version = 0;
    };

    /** Registry observer: a chain gained a local home. */
    void onChainPublished(std::uint64_t key, std::uint64_t verify,
                          std::uint32_t blocks, std::uint64_t tokens,
                          std::uint64_t bytes,
                          std::uint64_t chainSig);

    /** Registry observer: a chain lost its last local copy. */
    void onChainInvalidated(std::uint64_t key);

    /** Insert or replace a local advert, keeping localSum current. */
    void putLocal(const DirectoryEntry &e);

    /** Push one advert to every peer after the gossip delay. */
    void pushToPeers(const DirectoryEntry &entry);

    /** Dispatch one advert to one peer's router, now. */
    void pushToPeer(const Peer &peer, const DirectoryEntry &entry);

    /** Apply @p r, then journal it (if a journal is attached). */
    void commit(Record r);
    void trace(const char *category, const DirectoryEntry &e);

    aqua::sim::Simulation &sim;
    cluster::PrefixRegistry &registry;
    DirectoryConfig cfg;
    std::vector<Peer> peers;
    /** Authoritative adverts of locally homed chains, by key
     *  (tombstones retained so re-publishes keep version order). */
    std::map<std::uint64_t, DirectoryEntry> local;
    RemoteView remote;
    /** Digest of local, and of remote per origin server. */
    std::uint64_t localSum = 0;
    std::map<std::uint32_t, std::uint64_t> remoteSums;
    /** Open fetch grants by ticket. */
    std::map<std::uint64_t, ActiveFetch> fetches;
    std::uint64_t nextTicket = 1;
    /** Monotonic advert version source (per directory). */
    std::uint64_t seq = 0;
    trace::TraceLog *tracer = nullptr;
    Journal *journal = nullptr;
    bool frozenFlag = false;
    bool antiEntropyArmed = false;
    DirectoryStats counters;
};

} // namespace aqua::federation

#endif // AQUA_FEDERATION_DIRECTORY_HH
