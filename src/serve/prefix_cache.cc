#include "serve/prefix_cache.hh"

#include <algorithm>
#include <array>

#include "model/stream_choice.hh"
#include "serve/vllm_engine.hh"

namespace aqua::serve {

using namespace aqua::sim;

constexpr std::uint32_t blockTokens = VllmEngine::blockTokens;

/** Control-plane cost of a federation fetch: the fetch_begin grant and
 *  the fetch_end validation, each one coordinator round trip. */
constexpr Tick fetchControlTicks = 2 * nsPerUs;

PrefixCache::PrefixCache(hw::Server &server, hw::GpuId gpu,
                         const VllmEngineConfig &cfg, KvCache &kv,
                         PrefixCacheEngineStats &stats,
                         KvIntegrity &integrity,
                         const overload::Controls &controls)
    : server(server), myGpu(gpu), cfg(cfg), kv(kv), stats(stats),
      integrity(integrity), controls(controls),
      fetches(server.simulation())
{
}

PrefixCache::~PrefixCache() { attachRegistry(nullptr, nullptr); }

void
PrefixCache::attachRegistry(cluster::PrefixRegistry *reg,
                            core::AquaLib *regLib)
{
    if (registry) {
        // The agent is cleared last so the registry can still call
        // back while unwinding.
        for (auto &[key, c] : homeChains)
            lib->prefixEvictNotify(key, c.verify);
        homeChains.clear();
        homeKeysByBlock.clear();
        for (auto &[key, c] : replicaChains)
            lib->prefixEvictNotify(key, c.verify);
        replicaChains.clear();
        collisionChains.clear();
        registry->clearAgent(myGpu);
        kv.setEvictionObserver({});
        registry = nullptr;
        lib = nullptr;
        fedPerf = nullptr;
    }
    if (!reg || !regLib)
        return;
    registry = reg;
    lib = regLib;
    cluster::RegistryAgent agent;
    agent.setPinned = [this](std::uint64_t key, bool pinned) {
        return setPinned(key, pinned);
    };
    agent.promote = [this](std::uint64_t key) { return promote(key); };
    registry->setAgent(myGpu, std::move(agent));
    kv.setEvictionObserver(
        [this](aqua::mem::BlockId id) { onBlockEvicted(id); });
}

void
PrefixCache::attachFabric(hw::Fabric &fab, std::uint32_t serverIndex,
                          core::AquaLib &flib,
                          const model::PerfModel &perf)
{
    fabric = &fab;
    fedServer = serverIndex;
    fedLib = &flib;
    fedPerf = &perf;
}

KvCache::PrefixAcquire
PrefixCache::acquire(Sequence *s, Tick &transfersDone)
{
    std::uint64_t match = s->kvTokens() > 0 ? s->kvTokens() - 1 : 0;
    KvCache::PrefixAcquire grant =
        kv.acquirePrefix(s->chain, match, server.simulation().now());
    if (grant.partialTokens == 0) {
        // Local miss or full-block coverage: ask the registry whether
        // a peer GPU homes a longer chain.
        if (registry)
            extendFromRegistry(s, grant, transfersDone);
        return grant;
    }
    // A tail matches only when every full block up to the cap did, so
    // no peer chain can cover more. Prefill will append to the shared
    // tail: copy-on-write it now (the cached original stays valid for
    // future matches).
    if (auto forked = kv.forkBlock(grant.blocks.back())) {
        grant.blocks.back() = *forked;
        ++stats.cowForks;
        return grant;
    }
    // Pool exhausted: drop the partial part of the match.
    kv.freeBlocks({grant.blocks.back()});
    grant.blocks.pop_back();
    grant.tokens -= grant.partialTokens;
    grant.partialTokens = 0;
    return grant;
}

void
PrefixCache::extendFromRegistry(Sequence *s, KvCache::PrefixAcquire &grant,
                                Tick &transfersDone)
{
    std::size_t localFull = grant.blocks.size();
    std::vector<core::AquaLib::PrefixCandidate> cands =
        candidates(s, localFull);
    if (cands.empty())
        return;

    core::AquaLib::PrefixLookupOutcome rl = lib->prefixLookup(cands);
    if (!rl.found || rl.home == myGpu || rl.blocks <= localFull) {
        ++stats.registryMisses;
        return;
    }
    // Trust nothing across the wire: the registered chain's content
    // signature must match this request's own tokens.
    std::uint64_t wantSig = s->chain.sig(0, rl.blocks * blockTokens);
    if (wantSig != rl.chainSig) {
        ++stats.clusterSigMismatches;
        ++stats.registryMisses;
        return;
    }
    // The registry's liveness view can lag the fault.
    if (server.topology().gpuFailed(rl.home)) {
        ++stats.registryMisses;
        return;
    }
    core::AquaLib::PrefixPinOutcome pinr =
        lib->prefixPin(rl.key, rl.verify);
    if (!pinr.ok) {
        ++stats.registryMisses;
        return;
    }

    Tick now = server.simulation().now();
    // Sparse attention reprices borrow-vs-copy: each decode step reads
    // only a fraction of the borrowed lead over the peer link, so
    // proportionally longer chains are worth serving in place.
    std::uint64_t borrowCap = cfg.clusterBorrowMaxBlocks;
    if (cfg.sparseReadFraction < 1.0) {
        borrowCap = static_cast<std::uint64_t>(
            static_cast<double>(borrowCap) / cfg.sparseReadFraction);
    }
    if (localFull == 0 && rl.blocks <= borrowCap) {
        // Short chain: serve the lead in place from the home GPU.
        // The lease holds until the sequence releases it.
        grant.tokens = rl.tokens;
        s->lead = {rl.blocks, rl.tokens, pinr.home, pinr.pin};
        ++stats.borrowAdmissions;
        ++stats.registryHits;
        // Integrity draw on the admission probe read. A link hit is
        // always repairable here: the pinned home copy is intact, so
        // one retransmission over NVLink clears it.
        integrity.check(s->request.id, "prefix_borrow", false, [&] {
            hw::TransferTiming redo = lib->readPeerPrefix(
                pinr.home, kv.kvBytes(rl.tokens), rl.blocks, now);
            transfersDone = std::max(transfersDone, redo.complete);
        });
        return;
    }

    // Stream a local copy of the missing lead blocks over NVLink; the
    // lease holds the home copy resident until the transfer lands.
    std::size_t missing = rl.blocks - localFull;
    auto fresh = kv.allocateBlocks(missing);
    if (!fresh) {
        lib->prefixUnpin(pinr.pin);
        ++stats.registryMisses;
        return;
    }
    std::uint64_t bytes = kv.kvBytes(std::uint64_t(missing) * blockTokens);
    hw::TransferTiming t =
        lib->readPeerPrefix(pinr.home, bytes, missing, now);
    // Verify the streamed copy's signatures before admitting it. A
    // hit is in-flight link corruption (the pinned home copy is still
    // good), so one retransmission repairs it; the lease simply holds
    // a little longer.
    integrity.check(s->request.id, "prefix_copy", false, [&] {
        t = lib->readPeerPrefix(pinr.home, bytes, missing, t.complete);
    });
    transfersDone = std::max(transfersDone, t.complete);
    for (std::size_t i = 0; i < fresh->size(); ++i) {
        std::uint64_t first = std::uint64_t(localFull + i) * blockTokens;
        kv.setBlockSig((*fresh)[i], s->chain.sig(first, blockTokens));
        kv.setBlockOrigin((*fresh)[i], BlockOrigin::RemotePeer);
    }
    grant.blocks.insert(grant.blocks.end(), fresh->begin(), fresh->end());
    grant.tokens = std::uint64_t(rl.blocks) * blockTokens;
    stats.remoteCopyBytes += bytes;
    ++stats.copyAdmissions;
    ++stats.registryHits;
    // Release the lease once the stream has landed on this GPU.
    server.simulation().queue().schedule(
        t.complete, [peerLib = lib, pin = pinr.pin] {
            peerLib->prefixUnpin(pin);
        });
}

void
PrefixCache::abandon(Sequence *s, const KvCache::PrefixAcquire &grant)
{
    if (!grant.blocks.empty())
        kv.freeBlocks(grant.blocks);
    releaseLead(s);
}

void
PrefixCache::countHit(const Sequence *s, std::size_t grantBlocks,
                      std::uint64_t grantTokens, std::uint32_t streamed)
{
    std::size_t nBlocks = grantBlocks;
    std::uint64_t tokens = grantTokens;
    if (streamed > 0 && s->stream.origin == KvStream::Origin::Federation) {
        // A fetched chain's KV landed in the leading blocks: tag them
        // so hit accounting (and any later local reuse after publish)
        // knows the content crossed the fabric. A resume restores the
        // session's own context and counts no hit.
        nBlocks = std::min(kv.blocksForTokens(streamed), s->blocks.size());
        tokens = streamed;
        for (std::size_t i = 0; i < nBlocks; ++i)
            kv.setBlockOrigin(s->blocks[i], BlockOrigin::RemoteServer);
    }
    if (tokens == 0)
        return;
    stats.cachedTokens += tokens;
    // Tokens by BlockOrigin: Local, RemotePeer, Dram, RemoteServer.
    std::array<std::uint64_t, 4> by{};
    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < nBlocks && covered < tokens; ++i) {
        std::uint64_t tk =
            std::min<std::uint64_t>(blockTokens, tokens - covered);
        by[static_cast<std::size_t>(kv.blockOrigin(s->blocks[i]))] += tk;
        covered += tk;
    }
    auto [local, remote, dram, remoteServer] = by;
    // A borrowed lead serves from the peer with no local blocks.
    remote += s->lead.tokens;
    stats.hitTokensLocal += local;
    stats.hitTokensRemote += remote;
    stats.hitTokensDram += dram;
    stats.hitTokensRemoteServer += remoteServer;
    if (tracer) {
        json::Value f;
        f["request"] = static_cast<std::int64_t>(s->request.id);
        f["tokens"] = static_cast<std::int64_t>(tokens);
        f["local"] = static_cast<std::int64_t>(local);
        f["remote_peer"] = static_cast<std::int64_t>(remote);
        f["dram"] = static_cast<std::int64_t>(dram);
        f["remote_server"] = static_cast<std::int64_t>(remoteServer);
        tracer->emit(server.simulation().now(), "prefix_hit",
                     std::move(f));
    }
}

void
PrefixCache::publish(Sequence *s, bool atFinish)
{
    // Under brownout, cache upkeep is optional work: above
    // NoCachePublish freed blocks return to the pool instead of
    // lingering as evictable cache. Borrowed sequences hold only their
    // tail blocks; there is no locally resident chain rooted at token
    // zero to advertise.
    if (s->blocks.empty() || !controls.publishAllowed() ||
        s->lead.blocks > 0)
        return;
    std::uint64_t kvTok = s->kvTokens();
    std::vector<std::size_t> bounds;
    if (registry)
        bounds = chainBoundaries(s, atFinish);

    // Register the shareable boundaries and derive how much of the
    // chain to index locally: a boundary homed elsewhere (Replica) is
    // not duplicated past the previous boundary — unless a longer
    // chain is homed here, since homing carries the duty to keep the
    // whole chain resident. Simulated token contents are deterministic
    // per request stream, so without a registry every computed
    // position is indexed (publishPrefix caps coverage at what the
    // blocks hold).
    using Role = core::AquaLib::PrefixPublishOutcome::Role;
    std::uint64_t indexCap = kvTok;
    bool replicaSeen = false;
    std::uint64_t prevTokens = 0;
    for (std::size_t b : bounds) {
        ChainKeys ck = s->chain.keysAt(b);
        std::uint64_t tokens = std::uint64_t(b) * blockTokens;
        Role role;
        if (homeChains.count(ck.key) != 0) {
            role = Role::Home;
        } else if (replicaChains.count(ck.key) != 0) {
            role = Role::Replica;
        } else if (collisionChains.count(ck.key) != 0) {
            role = Role::Collision;
        } else {
            auto out = lib->prefixPublish(
                ck.key, ck.verify, static_cast<std::uint32_t>(b),
                tokens, kv.kvBytes(tokens), s->chain.sig(0, tokens));
            role = out.role;
            if (role == Role::Collision)
                collisionChains.insert(ck.key);
        }
        if (role == Role::Home || role == Role::Replica) {
            Chain rec;
            rec.blocks.assign(s->blocks.begin(), s->blocks.begin() + b);
            rec.verify = ck.verify;
            rec.req = s->request;
            rec.owner = role == Role::Replica ? s : nullptr;
            if (role == Role::Home)
                setHomeChain(ck.key, std::move(rec));
            else
                replicaChains[ck.key] = std::move(rec);
        }
        if (role == Role::Replica && !replicaSeen) {
            indexCap = prevTokens;
            replicaSeen = true;
        } else if (role == Role::Home && replicaSeen) {
            indexCap = tokens;
        }
        prevTokens = tokens;
    }
    kv.publishPrefix(s->chain, kvTok, s->blocks, server.simulation().now(),
                     indexCap);
}

std::vector<std::size_t>
PrefixCache::chainBoundaries(const Sequence *s, bool atFinish) const
{
    std::vector<std::size_t> out;
    const workload::Request &r = s->request;
    std::size_t maxBlocks =
        std::min<std::size_t>(s->blocks.size(), s->kvTokens() / blockTokens);
    std::size_t preamble =
        std::min<std::size_t>(r.prefixTokens / blockTokens, maxBlocks);
    if (preamble > 0)
        out.push_back(preamble);
    // Only *final* contexts of conversation streams recur (as the
    // next turn's history prefix); intermediate contexts of a
    // request-private stream never match anything.
    if (atFinish && r.contentStream != 0 && maxBlocks > preamble)
        out.push_back(maxBlocks);
    return out;
}

std::vector<core::AquaLib::PrefixCandidate>
PrefixCache::candidates(const Sequence *s, std::size_t localFull) const
{
    std::vector<core::AquaLib::PrefixCandidate> cands;
    std::uint64_t match = s->kvTokens() > 0 ? s->kvTokens() - 1 : 0;
    std::size_t wantFull = static_cast<std::size_t>(match / blockTokens);
    if (wantFull <= localFull)
        return cands;

    // Candidate boundaries, longest first. Conversation streams scan
    // densely — the previous turn's finish boundary is not knowable
    // here — while for declared-preamble requests only the preamble
    // boundary can match anything cluster-wide.
    if (s->request.contentStream != 0) {
        constexpr std::size_t kMaxCandidates = 64;
        for (std::size_t b = wantFull;
             b > localFull && cands.size() < kMaxCandidates; --b) {
            ChainKeys ck = s->chain.keysAt(b);
            cands.push_back(
                {ck.key, ck.verify, static_cast<std::uint32_t>(b)});
        }
    }
    std::size_t preamble = s->request.prefixTokens / blockTokens;
    if (preamble > localFull && preamble <= wantFull) {
        bool present = false;
        for (const auto &c : cands)
            present |= c.blocks == preamble;
        if (!present) {
            ChainKeys ck = s->chain.keysAt(preamble);
            cands.push_back({ck.key, ck.verify,
                             static_cast<std::uint32_t>(preamble)});
        }
    }
    return cands;
}

void
PrefixCache::beginFetch(Sequence *s, std::function<void()> landed)
{
    if (!cfg.federation || !fedPerf)
        return;
    std::vector<core::AquaLib::PrefixCandidate> cands = candidates(s, 0);
    if (cands.empty())
        return;
    // Escalation order: the scale-up domain first — a chain homed on
    // any GPU here streams over NVLink at admission — and only a
    // domain-wide miss consults the federation directory.
    if (lib->prefixLookup(cands).found)
        return;
    core::AquaLib::FederationLookupOutcome fl =
        fedLib->federationLookup(cands);
    if (!fl.found) {
        ++stats.fedMisses;
        return;
    }
    ++stats.fedHits;
    // Trust nothing across the fabric: the advertised chain's content
    // signature must match this request's own tokens.
    std::uint64_t wantSig = s->chain.sig(0, fl.chain.blocks * blockTokens);
    if (wantSig != fl.chain.chainSig) {
        ++stats.clusterSigMismatches;
        return;
    }
    // Stream-vs-recompute (the crossover SsdTier's resume uses too),
    // priced at the fabric's current state: the windowed stream's
    // idle-path makespan at the current degradation plus the path's
    // queue backlog, and on the streamed side the control round trips
    // and a dequant pass for a quantized chain. The NIC is far
    // narrower than NVLink and the spine oversubscribed, so the
    // verdict flips with chain length, degradation and backlog. No
    // hop's duration depends on the home GPU, which only the grant
    // names.
    std::uint32_t home = fl.chain.homeServer;
    Tick streamEstimate =
        fetches.estimate(TransferPlan::fabricRoute(*fabric, home, myGpu,
                                                   fedServer, myGpu),
                         fl.chain.bytes) +
        fabric->queueBacklog(home, fedServer);
    Tick overhead = fetchControlTicks +
                    fedPerf->dequantTimeAt(fl.chain.bytes, cfg.kvPrecision);
    Tick prefill = fedPerf->prefillTime(fl.chain.tokens);
    if (!model::streamBeatsRecompute(streamEstimate, overhead, prefill,
                                     cfg.federationSafetyFactor)) {
        ++stats.fedRecomputeDecisions;
        if (tracer) {
            json::Value f;
            f["request"] = static_cast<std::int64_t>(s->request.id);
            f["stream_estimate"] = static_cast<std::int64_t>(streamEstimate);
            f["prefill_estimate"] = static_cast<std::int64_t>(prefill);
            tracer->emit(server.simulation().now(), "fed_recompute",
                         std::move(f));
        }
        return;
    }
    ++stats.fedStreamDecisions;
    // Home-side admission: the Harvest-style cap bounds concurrent
    // remote consumers per home, and staleness is re-checked there.
    core::AquaLib::FederationFetchOutcome grant =
        fedLib->federationFetch(fl.chain);
    if (!grant.ok) {
        ++stats.fedFetchRefusals;
        return;
    }
    Tick now = server.simulation().now();
    auto tokens = static_cast<std::uint32_t>(grant.tokens);
    std::uint64_t bytes = grant.bytes;
    if (tracer) {
        json::Value f;
        f["request"] = static_cast<std::int64_t>(s->request.id);
        f["home_server"] = static_cast<std::int64_t>(grant.homeServer);
        f["tokens"] = static_cast<std::int64_t>(tokens);
        f["bytes"] = static_cast<std::int64_t>(bytes);
        tracer->emit(now, "fed_stream_begin", std::move(f));
    }
    TransferPlan::StreamId id = fetches.start(
        TransferPlan::fabricRoute(*fabric, grant.homeServer,
                                  grant.homeGpu, fedServer, myGpu),
        bytes, now,
        [this, s, tokens, bytes, home = grant.homeServer,
         ticket = grant.ticket,
         landed = std::move(landed)](const TransferPlan::Done &d) {
            s->stream.plan = nullptr;
            // Close the ticket whatever happens next: it frees the
            // home's admission slot and reports payload validity (the
            // chain may have been evicted or its home lost while the
            // stream was on the wire). A stream wound down early (the
            // request shed, or the home GPU failed) delivered only part
            // of the payload.
            bool valid = fedLib->federationFetchDone(home, ticket) &&
                         !d.cancelled;
            if (s->state == Sequence::State::Waiting) {
                if (valid) {
                    s->streamedTokens = tokens;
                    ++stats.fedStreamsCompleted;
                    stats.fedStreamBytes += bytes;
                } else {
                    // Cancel to recompute: the payload is worthless,
                    // the request simply re-prefills from its prompt.
                    ++stats.fedStreamsInvalidated;
                }
            }
            if (tracer) {
                json::Value f;
                f["request"] = static_cast<std::int64_t>(s->request.id);
                f["valid"] = valid;
                tracer->emit(server.simulation().now(), "fed_stream_end",
                             std::move(f));
            }
            landed();
        });
    s->stream = {&fetches, id, KvStream::Origin::Federation};
}

void
PrefixCache::releaseLead(Sequence *s)
{
    if (s->lead.pin != 0 && lib)
        lib->prefixUnpin(s->lead.pin);
    s->lead = {};
}

void
PrefixCache::release(Sequence *s)
{
    releaseLead(s);
    for (auto it = replicaChains.begin(); it != replicaChains.end();) {
        if (it->second.owner == s) {
            std::uint64_t key = it->first;
            std::uint64_t verify = it->second.verify;
            it = replicaChains.erase(it);
            lib->prefixEvictNotify(key, verify);
        } else {
            ++it;
        }
    }
}

bool
PrefixCache::leadLost(const Sequence *s)
{
    if (s->lead.blocks == 0 || !server.topology().gpuFailed(s->lead.home))
        return false;
    ++stats.remoteBrokenChains;
    return true;
}

Tick
PrefixCache::leadReadTime(const std::vector<Sequence *> &batch)
{
    std::uint64_t leadBytes = 0;
    for (const Sequence *s : batch)
        leadBytes += kv.kvBytes(s->lead.tokens);
    if (leadBytes == 0)
        return 0;
    std::uint64_t readKv = leadBytes;
    if (cfg.sparseReadFraction < 1.0) {
        readKv = static_cast<std::uint64_t>(
            static_cast<double>(leadBytes) * cfg.sparseReadFraction);
    }
    stats.remoteDecodeReadBytes += readKv;
    return server.topology().peerTransferDuration(readKv);
}

bool
PrefixCache::setPinned(std::uint64_t key, bool pinned)
{
    auto it = homeChains.find(key);
    if (it == homeChains.end())
        return false;
    for (aqua::mem::BlockId id : it->second.blocks) {
        if (pinned)
            kv.pinBlock(id);
        else
            kv.unpinBlock(id);
    }
    return true;
}

bool
PrefixCache::promote(std::uint64_t key)
{
    auto it = replicaChains.find(key);
    if (it == replicaChains.end())
        return false;
    Chain c = std::move(it->second);
    replicaChains.erase(it);
    c.owner = nullptr;
    // Adopt the chain: index it locally so it stays resident (and
    // pinnable) after the owning sequence releases its blocks.
    kv.publishPrefix(TokenChain(tokenFnFor(c.req), blockTokens),
                     c.blocks.size() * std::uint64_t(blockTokens), c.blocks,
                     server.simulation().now());
    setHomeChain(key, std::move(c));
    return true;
}

void
PrefixCache::setHomeChain(std::uint64_t key, Chain c)
{
    auto [it, fresh] = homeChains.try_emplace(key);
    Chain &home = it->second;
    // A re-home with new blocks must un-index the old ones: evicting
    // one of them no longer touches this chain.
    if (fresh || home.blocks != c.blocks) {
        unindexHomeChain(key, home.blocks);
        for (aqua::mem::BlockId id : c.blocks) {
            if (homeKeysByBlock.size() <= id)
                homeKeysByBlock.resize(id + 1);
            std::vector<std::uint64_t> &keys = homeKeysByBlock[id];
            keys.insert(std::lower_bound(keys.begin(), keys.end(), key),
                        key);
        }
    }
    home = std::move(c);
}

void
PrefixCache::unindexHomeChain(std::uint64_t key,
                              const std::vector<aqua::mem::BlockId> &blocks)
{
    for (aqua::mem::BlockId id : blocks) {
        std::vector<std::uint64_t> &keys = homeKeysByBlock[id];
        keys.erase(std::find(keys.begin(), keys.end(), key));
    }
}

void
PrefixCache::onBlockEvicted(aqua::mem::BlockId id)
{
    // Every home chain holding the block, ascending key order: each
    // erase drops its key, so the smallest left is the next victim.
    while (id < homeKeysByBlock.size() && !homeKeysByBlock[id].empty()) {
        std::uint64_t key = homeKeysByBlock[id].front();
        auto it = homeChains.find(key);
        std::uint64_t verify = it->second.verify;
        unindexHomeChain(key, it->second.blocks);
        homeChains.erase(it);
        lib->prefixEvictNotify(key, verify);
    }
}

} // namespace aqua::serve
