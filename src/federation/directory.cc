#include "federation/directory.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "recovery/state_journal.hh"
#include "sim/logging.hh"

namespace aqua::federation {

using aqua::sim::Tick;
using aqua::sim::panic;
using json::Value;

FederationDirectory::FederationDirectory(
    aqua::sim::Simulation &sim, cluster::PrefixRegistry &registry,
    DirectoryConfig config)
    : sim(sim), registry(registry), cfg(config)
{
    if (cfg.maxRemoteConsumers == 0)
        panic("FederationDirectory: maxRemoteConsumers must be >= 1");
    cluster::ChainObserver obs;
    obs.published = [this](std::uint64_t key, std::uint64_t verify,
                           std::uint32_t blocks, std::uint64_t tokens,
                           std::uint64_t bytes,
                           std::uint64_t chainSig) {
        onChainPublished(key, verify, blocks, tokens, bytes,
                         chainSig);
    };
    obs.invalidated = [this](std::uint64_t key) {
        onChainInvalidated(key);
    };
    registry.setChainObserver(std::move(obs));
}

FederationDirectory::~FederationDirectory()
{
    registry.setChainObserver({});
}

void
FederationDirectory::addPeer(std::uint32_t serverId,
                             core::RestRouter &router)
{
    if (serverId == cfg.serverId)
        panic("FederationDirectory: server %u peering with itself",
              cfg.serverId);
    for (const Peer &p : peers) {
        if (p.serverId == serverId)
            panic("FederationDirectory: duplicate peer %u", serverId);
    }
    peers.push_back(Peer{serverId, &router});
}

void
FederationDirectory::commit(Record r)
{
    apply(r);
    if (journal)
        journal->append(std::move(r));
}

void
FederationDirectory::trace(const char *category,
                           const DirectoryEntry &e)
{
    if (!tracer)
        return;
    Value f;
    f["key"] = static_cast<std::int64_t>(e.key);
    f["server"] = static_cast<std::int64_t>(e.server);
    f["version"] = static_cast<std::int64_t>(e.version);
    f["blocks"] = static_cast<std::int64_t>(e.blocks);
    tracer->emit(sim.now(), category, std::move(f));
}

Value
FederationDirectory::advertToJson(const DirectoryEntry &e)
{
    Value v;
    v["key"] = static_cast<std::int64_t>(e.key);
    v["verify"] = static_cast<std::int64_t>(e.verify);
    v["blocks"] = static_cast<std::int64_t>(e.blocks);
    v["tokens"] = static_cast<std::int64_t>(e.tokens);
    v["bytes"] = static_cast<std::int64_t>(e.bytes);
    v["chain_sig"] = static_cast<std::int64_t>(e.chainSig);
    v["server"] = static_cast<std::int64_t>(e.server);
    v["version"] = static_cast<std::int64_t>(e.version);
    v["tombstone"] = e.tombstone;
    return v;
}

DirectoryEntry
FederationDirectory::advertFromJson(const Value &v)
{
    DirectoryEntry e;
    e.key = static_cast<std::uint64_t>(v.getInt("key", 0));
    e.verify = static_cast<std::uint64_t>(v.getInt("verify", 0));
    e.blocks = static_cast<std::uint32_t>(v.getInt("blocks", 0));
    e.tokens = static_cast<std::uint64_t>(v.getInt("tokens", 0));
    e.bytes = static_cast<std::uint64_t>(v.getInt("bytes", 0));
    e.chainSig =
        static_cast<std::uint64_t>(v.getInt("chain_sig", 0));
    e.server = static_cast<std::uint32_t>(v.getInt("server", 0));
    e.version = static_cast<std::uint64_t>(v.getInt("version", 0));
    e.tombstone = v.getBool("tombstone", false);
    return e;
}

void
FederationDirectory::onChainPublished(
    std::uint64_t key, std::uint64_t verify, std::uint32_t blocks,
    std::uint64_t tokens, std::uint64_t bytes, std::uint64_t chainSig)
{
    DirectoryEntry e;
    e.key = key;
    e.verify = verify;
    e.blocks = blocks;
    e.tokens = tokens;
    e.bytes = bytes;
    e.chainSig = chainSig;
    e.server = cfg.serverId;
    e.version = seq + 1;
    e.tombstone = false;
    commit(Advert{e});
    ++counters.advertsPublished;
    trace("fed_advert", e);
    pushToPeers(e);
}

void
FederationDirectory::onChainInvalidated(std::uint64_t key)
{
    auto it = local.find(key);
    if (it == local.end() || it->second.tombstone)
        return;
    commit(Tombstone{key, seq + 1});
    ++counters.tombstones;
    trace("fed_tombstone", it->second);
    pushToPeers(it->second);
}

std::uint64_t
FederationDirectory::advertHash(std::uint64_t key,
                                std::uint64_t version)
{
    // splitmix64's finaliser over the key, then over the version
    // folded into the mixed key: distinct (key, version) pairs
    // collide only by accident of the 64-bit hash.
    auto mix = [](std::uint64_t z) {
        z += 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    return mix(mix(key) ^ version);
}

std::uint64_t
FederationDirectory::remoteDigest(std::uint32_t origin) const
{
    auto it = remoteSums.find(origin);
    return it == remoteSums.end() ? 0 : it->second;
}

void
FederationDirectory::putLocal(const DirectoryEntry &e)
{
    auto [it, fresh] = local.try_emplace(e.key, e);
    if (!fresh) {
        localSum -= advertHash(e.key, it->second.version);
        it->second = e;
    }
    localSum += advertHash(e.key, e.version);
}

void
FederationDirectory::pushToPeers(const DirectoryEntry &entry)
{
    if (peers.empty())
        return;
    Tick when = sim.now() + cfg.gossipDelay;
    // Copy the entry: by delivery time the local table may have moved
    // on, but gossip delivers what was advertised, in version order.
    DirectoryEntry e = entry;
    sim.queue().schedule(when, [this, e] {
        for (const Peer &p : peers)
            pushToPeer(p, e);
    });
}

void
FederationDirectory::pushToPeer(const Peer &peer,
                                const DirectoryEntry &entry)
{
    core::RestResponse resp = peer.router->dispatch(
        "POST /federation/advertise", advertToJson(entry));
    if (!resp.ok())
        ++counters.advertsDropped;
}

void
FederationDirectory::startAntiEntropy(Tick until)
{
    if (antiEntropyArmed)
        panic("FederationDirectory: anti-entropy already started");
    antiEntropyArmed = true;
    Tick first = sim.now() + cfg.antiEntropyPeriod;
    if (first >= until)
        return;
    // A self-rescheduling round; the explicit horizon keeps the event
    // queue finite so plain sim.run() terminates. The stored function
    // holds only a weak reference to itself — the strong ones live in
    // the scheduled closures — so the chain frees once past the
    // horizon instead of leaking a shared_ptr cycle.
    std::shared_ptr<std::function<void()>> tick =
        std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak = tick;
    *tick = [this, until, weak]() {
        antiEntropyRound();
        Tick next = sim.now() + cfg.antiEntropyPeriod;
        std::shared_ptr<std::function<void()>> self = weak.lock();
        if (self && next < until)
            sim.queue().schedule(next, [self] { (*self)(); });
    };
    sim.queue().schedule(first, [tick] { (*tick)(); });
}

void
FederationDirectory::antiEntropyRound()
{
    ++counters.antiEntropyRounds;
    // A crashed coordinator does not gossip; its table repairs after
    // recovery unfreezes it.
    if (frozenFlag || local.empty())
        return;
    Value digest;
    digest["server"] = static_cast<std::int64_t>(cfg.serverId);
    digest["digest"] = localSum;
    // A peer that cannot answer is treated as behind: the fallback is
    // the full push, so repair odds never drop below a full resend.
    std::vector<const Peer *> behind;
    for (const Peer &p : peers) {
        core::RestResponse resp =
            p.router->dispatch("POST /federation/digest", digest);
        if (!resp.ok() || !resp.body.getBool("match", false))
            behind.push_back(&p);
    }
    for (const auto &[key, entry] : local) {
        for (const Peer *p : behind)
            pushToPeer(*p, entry);
    }
}

void
FederationDirectory::applyAdvert(const DirectoryEntry &entry)
{
    if (entry.server == cfg.serverId)
        return;
    auto [it, fresh] = remote[entry.key].try_emplace(entry.server);
    DirectoryEntry &slot = it->second;
    if (entry.version <= slot.version && slot.version != 0) {
        ++counters.advertsStale;
        return;
    }
    std::uint64_t &sum = remoteSums[entry.server];
    if (!fresh)
        sum -= advertHash(entry.key, slot.version);
    sum += advertHash(entry.key, entry.version);
    slot = entry;
    ++counters.advertsApplied;
}

FederationLookup
FederationDirectory::lookup(
    const std::vector<cluster::CandidateKey> &candidates)
{
    ++counters.lookups;
    for (const cluster::CandidateKey &cand : candidates) {
        auto it = remote.find(cand.key);
        if (it == remote.end())
            continue;
        // Deterministic preference among multiple origins: the
        // lowest live server id. All copies are byte-equivalent
        // (same chainSig), so any live origin serves.
        for (const auto &[server, entry] : it->second) {
            if (entry.tombstone || entry.verify != cand.verify)
                continue;
            ++counters.hits;
            return {true, entry};
        }
    }
    ++counters.misses;
    return {};
}

FetchGrant
FederationDirectory::requestFetch(const DirectoryEntry &entry)
{
    const Peer *home = nullptr;
    for (const Peer &p : peers) {
        if (p.serverId == entry.server)
            home = &p;
    }
    FetchGrant g;
    if (home == nullptr) {
        g.reason = "unknown_server";
        return g;
    }
    Value req;
    req["key"] = static_cast<std::int64_t>(entry.key);
    req["verify"] = static_cast<std::int64_t>(entry.verify);
    req["consumer_server"] =
        static_cast<std::int64_t>(cfg.serverId);
    core::RestResponse resp = home->router->dispatch(
        "POST /federation/fetch_begin", std::move(req));
    if (!resp.ok() || !resp.body.getBool("ok", false)) {
        g.reason = resp.ok()
                       ? resp.body.getString("reason", "refused")
                       : "unreachable";
        // An unreachable or stale home cannot serve this advert, so
        // the next request must not retry a dead end. A stale home
        // withdrew the chain: tombstone the learned copy until the
        // withdrawal's own advert lands. An unreachable home may
        // still hold it: forget the copy, so the view's digest no
        // longer matches the home's and its next anti-entropy round
        // restores it.
        auto it = remote.find(entry.key);
        if (it == remote.end())
            return g;
        auto slot = it->second.find(entry.server);
        if (slot == it->second.end())
            return g;
        if (g.reason == "stale") {
            slot->second.tombstone = true;
        } else if (g.reason == "unreachable") {
            remoteSums[entry.server] -=
                advertHash(entry.key, slot->second.version);
            it->second.erase(slot);
            if (it->second.empty())
                remote.erase(it);
        }
        return g;
    }
    g.ok = true;
    g.ticket =
        static_cast<std::uint64_t>(resp.body.getInt("ticket", 0));
    g.homeGpu = static_cast<hw::GpuId>(
        resp.body.getInt("home_gpu", hw::hostDramId));
    g.homeServer = entry.server;
    g.blocks =
        static_cast<std::uint32_t>(resp.body.getInt("blocks", 0));
    g.tokens =
        static_cast<std::uint64_t>(resp.body.getInt("tokens", 0));
    g.bytes =
        static_cast<std::uint64_t>(resp.body.getInt("bytes", 0));
    g.chainSig = static_cast<std::uint64_t>(
        resp.body.getInt("chain_sig", 0));
    return g;
}

bool
FederationDirectory::finishFetch(std::uint32_t homeServer,
                                 std::uint64_t ticket)
{
    const Peer *home = nullptr;
    for (const Peer &p : peers) {
        if (p.serverId == homeServer)
            home = &p;
    }
    if (home == nullptr)
        return false;
    Value req;
    req["ticket"] = static_cast<std::int64_t>(ticket);
    core::RestResponse resp = home->router->dispatch(
        "POST /federation/fetch_end", std::move(req));
    // Unreachable home (crashed mid-stream): nobody can vouch for
    // the payload; treat it as invalid and recompute.
    return resp.ok() && resp.body.getBool("valid", false);
}

FetchGrant
FederationDirectory::fetchBegin(std::uint64_t key,
                                std::uint64_t verify,
                                std::uint32_t consumerServer)
{
    (void)consumerServer;
    FetchGrant g;
    auto it = local.find(key);
    cluster::LookupResult chain = registry.peek(key, verify);
    if (!chain.found || it == local.end() || it->second.tombstone) {
        ++counters.fetchStaleRejects;
        g.reason = "stale";
        return g;
    }
    if (fetches.size() >= cfg.maxRemoteConsumers) {
        ++counters.fetchCapRejects;
        g.reason = "cap";
        return g;
    }
    std::uint64_t ticket = nextTicket++;
    fetches[ticket] = ActiveFetch{key, verify, it->second.version};
    ++counters.fetchGrants;
    g.ok = true;
    g.ticket = ticket;
    g.homeGpu = chain.home;
    g.homeServer = cfg.serverId;
    g.blocks = chain.blocks;
    g.tokens = chain.tokens;
    g.bytes = chain.bytes;
    g.chainSig = chain.chainSig;
    return g;
}

bool
FederationDirectory::fetchEnd(std::uint64_t ticket)
{
    auto it = fetches.find(ticket);
    if (it == fetches.end())
        return false; // unknown ticket: granted before a crash
    ActiveFetch f = it->second;
    fetches.erase(it);
    auto adv = local.find(f.key);
    bool valid = adv != local.end() && !adv->second.tombstone &&
                 adv->second.version == f.version &&
                 registry.peek(f.key, f.verify).found;
    if (valid)
        ++counters.fetchValidated;
    else
        ++counters.fetchInvalidated;
    return valid;
}

std::size_t
FederationDirectory::remoteAdvertCount() const
{
    std::size_t n = 0;
    for (const auto &[key, origins] : remote) {
        for (const auto &[server, entry] : origins) {
            if (!entry.tombstone)
                ++n;
        }
    }
    return n;
}

//
// Crash recovery.
//

void
FederationDirectory::attachJournal(Journal *j)
{
    journal = j;
    if (journal) {
        journal->setSnapshotProvider(
            [this] { return exportState(); });
    }
}

Value
FederationDirectory::exportState() const
{
    json::Array adverts;
    for (const auto &[key, entry] : local)
        adverts.push_back(advertToJson(entry));
    Value v;
    v["seq"] = static_cast<std::int64_t>(seq);
    v["adverts"] = std::move(adverts);
    return v;
}

void
FederationDirectory::reset()
{
    local.clear();
    remote.clear();
    localSum = 0;
    remoteSums.clear();
    fetches.clear();
    seq = 0;
}

void
FederationDirectory::restoreState(const Value &snapshot)
{
    reset();
    seq = static_cast<std::uint64_t>(snapshot.getInt("seq", 0));
    if (const Value *list = snapshot.find("adverts")) {
        for (const Value &a : list->asArray())
            putLocal(advertFromJson(a));
    }
}

void
FederationDirectory::apply(const Record &rec)
{
    std::visit(recovery::Overloaded{
                   [&](const Advert &r) {
                       putLocal(r.entry);
                       seq = std::max(seq, r.entry.version);
                   },
                   [&](const Tombstone &r) {
                       auto it = local.find(r.key);
                       if (it != local.end()) {
                           DirectoryEntry e = it->second;
                           e.tombstone = true;
                           e.version = r.version;
                           putLocal(e);
                       }
                       seq = std::max(seq, r.version);
                   },
               },
               rec);
}

} // namespace aqua::federation
