#include "cluster/prefix_registry.hh"

#include <algorithm>

#include "recovery/state_journal.hh"
#include "sim/logging.hh"

namespace aqua::cluster {

using aqua::sim::Tick;

bool
PrefixRegistry::gpuAlive(hw::GpuId gpu) const
{
    return !alive || alive(gpu);
}

void
PrefixRegistry::commit(Record r)
{
    apply(r);
    if (journal)
        journal->append(std::move(r));
}

void
PrefixRegistry::traceChain(Tick now, const char *category,
                           const Chain &chain)
{
    traceChain(now, category, chain, chain.home, chain.replicas.size());
}

void
PrefixRegistry::traceChain(Tick now, const char *category,
                           const Chain &chain, hw::GpuId home,
                           std::size_t replicas)
{
    if (!tracer)
        return;
    json::Object fields;
    fields["chain"] = static_cast<std::int64_t>(chain.key);
    fields["home"] = home;
    fields["blocks"] = static_cast<std::int64_t>(chain.blocks);
    fields["replicas"] = static_cast<std::int64_t>(replicas);
    tracer->emit(now, category, json::Value(std::move(fields)));
}

PublishResult
PrefixRegistry::publish(hw::GpuId gpu, std::uint64_t key,
                        std::uint64_t verify, std::uint32_t blocks,
                        std::uint64_t tokens, std::uint64_t bytes,
                        std::uint64_t chainSig, Tick now)
{
    key &= keyMask;
    ++counters.publishes;
    auto it = chains.find(key);
    if (it != chains.end() && it->second.verify == verify &&
        !gpuAlive(it->second.home) &&
        !promoteOrInvalidate(it->second, now)) {
        // The dead home's chain was invalidated: a fresh publisher of
        // the same content takes over below.
        it = chains.end();
    }
    if (it == chains.end()) {
        commit(Home{key, verify, blocks, tokens, bytes, chainSig, gpu});
        traceChain(now, "registry_home", chains.at(key));
        if (observer.published)
            observer.published(key, verify, blocks, tokens, bytes,
                               chainSig);
        return {PublishRole::Home, gpu};
    }
    Chain &chain = it->second;
    if (chain.verify != verify) {
        ++counters.collisions;
        return {PublishRole::Collision, chain.home};
    }
    if (gpu == chain.home)
        return {PublishRole::Home, gpu};
    if (std::find(chain.replicas.begin(), chain.replicas.end(), gpu) ==
        chain.replicas.end()) {
        commit(Replica{key, gpu});
        ++counters.replicaPublishes;
    }
    return {PublishRole::Replica, chain.home};
}

LookupResult
PrefixRegistry::lookup(hw::GpuId gpu,
                       const std::vector<CandidateKey> &candidates,
                       Tick now)
{
    (void)gpu;
    ++counters.lookups;
    for (const CandidateKey &cand : candidates) {
        auto it = chains.find(cand.key & keyMask);
        if (it == chains.end())
            continue;
        Chain &chain = it->second;
        if (chain.verify != cand.verify) {
            // Cluster-wide primary-hash collision: fall through to
            // the next (shorter) candidate boundary.
            ++counters.collisions;
            continue;
        }
        if (!gpuAlive(chain.home) &&
            !promoteOrInvalidate(chain, now))
            continue; // invalidated; `chain` is gone
        ++counters.hits;
        LookupResult r;
        r.found = true;
        r.key = chain.key;
        r.verify = chain.verify;
        r.home = chain.home;
        r.blocks = chain.blocks;
        r.tokens = chain.tokens;
        r.bytes = chain.bytes;
        r.chainSig = chain.chainSig;
        return r;
    }
    ++counters.misses;
    return {};
}

LookupResult
PrefixRegistry::peek(std::uint64_t key, std::uint64_t verify) const
{
    auto it = chains.find(key & keyMask);
    if (it == chains.end() || it->second.verify != verify)
        return {};
    const Chain &chain = it->second;
    if (!gpuAlive(chain.home))
        return {};
    LookupResult r;
    r.found = true;
    r.key = chain.key;
    r.verify = chain.verify;
    r.home = chain.home;
    r.blocks = chain.blocks;
    r.tokens = chain.tokens;
    r.bytes = chain.bytes;
    r.chainSig = chain.chainSig;
    return r;
}

PinResult
PrefixRegistry::pin(hw::GpuId consumer, std::uint64_t key,
                    std::uint64_t verify, Tick now)
{
    auto it = chains.find(key & keyMask);
    if (it == chains.end() || it->second.verify != verify) {
        ++counters.pinRejects;
        return {};
    }
    Chain &chain = it->second;
    if (!gpuAlive(chain.home) && !promoteOrInvalidate(chain, now)) {
        ++counters.pinRejects;
        return {};
    }
    if (chain.pins.empty()) {
        // First lease: ask the home engine to pin the blocks. A
        // refusal means the chain is no longer resident there.
        auto agent = agents.find(chain.home);
        if (agent == agents.end() ||
            !agent->second.setPinned(chain.key, true)) {
            ++counters.pinRejects;
            hw::GpuId home = chain.home;
            evictNotify(home, chain.key, verify, now);
            return {};
        }
    }
    std::uint64_t id = nextPin;
    commit(Pin{id, chain.key, consumer});
    ++counters.pins;
    return {true, id, chain.home};
}

bool
PrefixRegistry::dropPin(std::uint64_t pin)
{
    auto ref = pinChain.find(pin);
    if (ref == pinChain.end())
        return false;
    std::uint64_t key = ref->second;
    commit(Unpin{pin});
    auto it = chains.find(key);
    if (it == chains.end())
        return true;
    const Chain &chain = it->second;
    if (chain.pins.empty() && gpuAlive(chain.home)) {
        auto agent = agents.find(chain.home);
        if (agent != agents.end())
            agent->second.setPinned(chain.key, false);
    }
    return true;
}

void
PrefixRegistry::unpin(std::uint64_t pin, Tick now)
{
    (void)now;
    if (dropPin(pin))
        ++counters.unpins;
}

void
PrefixRegistry::breakPins(Chain &chain)
{
    counters.brokenPins += chain.pins.size();
    for (const auto &[id, consumer] : chain.pins)
        pinChain.erase(id);
    chain.pins.clear();
}

bool
PrefixRegistry::promoteOrInvalidate(Chain &chain, Tick now)
{
    // Ask the replicas in publish order until one accepts. The walk
    // reads a copy and the chain changes only in apply(): an agent's
    // promote can re-enter evictNotify, but only for chains its engine
    // homes, and this one it holds as a replica.
    const std::uint64_t key = chain.key;
    const hw::GpuId oldHome = chain.home;
    const std::vector<hw::GpuId> candidates = chain.replicas;
    for (hw::GpuId next : candidates) {
        if (!gpuAlive(next))
            continue;
        auto agent = agents.find(next);
        if (agent == agents.end() || !agent->second.promote(key))
            continue;
        commit(Promote{key, next});
        ++counters.promotions;
        traceChain(now, "registry_unhome", chain, oldHome,
                   chain.replicas.size());
        traceChain(now, "registry_promote", chain);
        traceChain(now, "registry_home", chain);
        return true;
    }
    ++counters.invalidations;
    traceChain(now, "registry_unhome", chain, oldHome, 0);
    traceChain(now, "registry_invalidate", chain, oldHome, 0);
    commit(Invalidate{key});
    if (observer.invalidated)
        observer.invalidated(key);
    return false;
}

EvictAction
PrefixRegistry::evictNotify(hw::GpuId gpu, std::uint64_t key,
                            std::uint64_t verify, Tick now)
{
    ++counters.evictNotices;
    auto it = chains.find(key & keyMask);
    if (it == chains.end() || it->second.verify != verify)
        return EvictAction::Ignored;
    Chain &chain = it->second;
    if (gpu != chain.home) {
        auto pos = std::find(chain.replicas.begin(),
                             chain.replicas.end(), gpu);
        if (pos != chain.replicas.end())
            commit(ReplicaDrop{chain.key, gpu});
        return EvictAction::Ignored;
    }
    return promoteOrInvalidate(chain, now) ? EvictAction::Promoted
                                           : EvictAction::Invalidated;
}

void
PrefixRegistry::onGpuFailed(hw::GpuId gpu, Tick now)
{
    // Leases held *by* the failed GPU evaporate; releasing the last
    // one unpins the home engine's blocks.
    std::vector<std::uint64_t> stale;
    for (const auto &[id, key] : pinChain) {
        auto it = chains.find(key);
        if (it == chains.end())
            continue;
        auto pin = it->second.pins.find(id);
        if (pin != it->second.pins.end() && pin->second == gpu)
            stale.push_back(id);
    }
    for (std::uint64_t id : stale) {
        if (dropPin(id))
            ++counters.brokenPins;
    }

    std::vector<std::uint64_t> homed;
    for (const auto &[key, chain] : chains) {
        if (std::find(chain.replicas.begin(), chain.replicas.end(),
                      gpu) != chain.replicas.end())
            commit(ReplicaDrop{key, gpu});
        if (chain.home == gpu)
            homed.push_back(key);
    }
    for (std::uint64_t key : homed) {
        auto it = chains.find(key);
        if (it != chains.end())
            promoteOrInvalidate(it->second, now);
    }
    agents.erase(gpu);
}

void
PrefixRegistry::setAgent(hw::GpuId gpu, RegistryAgent agent)
{
    agents[gpu] = std::move(agent);
}

void
PrefixRegistry::clearAgent(hw::GpuId gpu)
{
    agents.erase(gpu);
}

std::size_t
PrefixRegistry::activePins() const
{
    return pinChain.size();
}

std::size_t
PrefixRegistry::pinsHeldBy(hw::GpuId consumer) const
{
    std::size_t n = 0;
    for (const auto &[key, chain] : chains)
        for (const auto &[id, gpu] : chain.pins)
            if (gpu == consumer)
                ++n;
    return n;
}

hw::GpuId
PrefixRegistry::homeOf(std::uint64_t key) const
{
    auto it = chains.find(key & keyMask);
    return it == chains.end() ? hw::hostDramId : it->second.home;
}

std::uint32_t
PrefixRegistry::chainRefs(std::uint64_t key) const
{
    auto it = chains.find(key & keyMask);
    if (it == chains.end())
        return 0;
    // Publishers (the home and its replicas) plus pins.
    return static_cast<std::uint32_t>(1 + it->second.replicas.size() +
                                      it->second.pins.size());
}

//
// Crash recovery.
//

void
PrefixRegistry::attachJournal(Journal *j)
{
    journal = j;
    if (journal)
        journal->setSnapshotProvider([this] { return exportState(); });
}

json::Value
PrefixRegistry::exportState() const
{
    json::Value v;
    v["next_pin"] = nextPin;
    json::Array arr;
    // Deterministic snapshot order despite the unordered map: sort by
    // key so twin runs produce byte-identical journals.
    std::vector<std::uint64_t> keys;
    keys.reserve(chains.size());
    for (const auto &[key, chain] : chains)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t key : keys) {
        const Chain &c = chains.at(key);
        json::Value e;
        e["key"] = c.key;
        e["verify"] = c.verify;
        e["blocks"] = c.blocks;
        e["tokens"] = c.tokens;
        e["bytes"] = c.bytes;
        e["chain_sig"] = c.chainSig;
        e["home"] = c.home;
        e["replicas"] =
            json::Value(json::Array(c.replicas.begin(), c.replicas.end()));
        json::Array pins;
        for (const auto &[id, consumer] : c.pins) {
            json::Value p;
            p["id"] = id;
            p["gpu"] = consumer;
            pins.push_back(std::move(p));
        }
        e["pins"] = json::Value(std::move(pins));
        arr.push_back(std::move(e));
    }
    v["chains"] = json::Value(std::move(arr));
    return v;
}

void
PrefixRegistry::reset()
{
    chains.clear();
    pinChain.clear();
    nextPin = 1;
}

void
PrefixRegistry::restoreState(const json::Value &snapshot)
{
    nextPin = static_cast<std::uint64_t>(
        snapshot.getInt("next_pin", 1));
    if (const json::Value *arr = snapshot.find("chains")) {
        for (const json::Value &e : arr->asArray()) {
            Chain c;
            c.key = static_cast<std::uint64_t>(e.getInt("key", 0));
            c.verify =
                static_cast<std::uint64_t>(e.getInt("verify", 0));
            c.blocks =
                static_cast<std::uint32_t>(e.getInt("blocks", 0));
            c.tokens =
                static_cast<std::uint64_t>(e.getInt("tokens", 0));
            c.bytes = static_cast<std::uint64_t>(e.getInt("bytes", 0));
            c.chainSig =
                static_cast<std::uint64_t>(e.getInt("chain_sig", 0));
            c.home = static_cast<hw::GpuId>(e.getInt("home", 0));
            if (const json::Value *reps = e.find("replicas"))
                for (const json::Value &r : reps->asArray())
                    c.replicas.push_back(
                        static_cast<hw::GpuId>(r.asInt()));
            if (const json::Value *pins = e.find("pins")) {
                for (const json::Value &p : pins->asArray()) {
                    std::uint64_t id = static_cast<std::uint64_t>(
                        p.getInt("id", 0));
                    c.pins.emplace(id, static_cast<hw::GpuId>(
                                           p.getInt("gpu", 0)));
                    pinChain.emplace(id, c.key);
                }
            }
            chains.emplace(c.key, std::move(c));
        }
    }
}

void
PrefixRegistry::apply(const Record &rec)
{
    std::visit(
        recovery::Overloaded{
            [&](const Home &r) {
                chains[r.key] = Chain{.key = r.key,
                                      .verify = r.verify,
                                      .blocks = r.blocks,
                                      .tokens = r.tokens,
                                      .bytes = r.bytes,
                                      .chainSig = r.chainSig,
                                      .home = r.home,
                                      .replicas = {},
                                      .pins = {}};
            },
            [&](const Replica &r) {
                auto it = chains.find(r.key);
                if (it == chains.end())
                    return;
                it->second.replicas.push_back(r.gpu);
            },
            [&](const ReplicaDrop &r) {
                auto it = chains.find(r.key);
                if (it == chains.end())
                    return;
                Chain &c = it->second;
                auto pos = std::find(c.replicas.begin(), c.replicas.end(),
                                     r.gpu);
                if (pos != c.replicas.end())
                    c.replicas.erase(pos);
            },
            [&](const Promote &r) {
                auto it = chains.find(r.key);
                if (it == chains.end())
                    return;
                Chain &c = it->second;
                breakPins(c);
                // The replicas asked before the new home (they refused
                // or were dead) go with it.
                auto pos = std::find(c.replicas.begin(), c.replicas.end(),
                                     r.home);
                c.replicas.erase(c.replicas.begin(),
                                 pos == c.replicas.end() ? pos : pos + 1);
                c.home = r.home;
            },
            [&](const Invalidate &r) {
                auto it = chains.find(r.key);
                if (it == chains.end())
                    return;
                breakPins(it->second);
                chains.erase(it);
            },
            [&](const Pin &r) {
                auto it = chains.find(r.key);
                if (it != chains.end()) {
                    it->second.pins.emplace(r.pin, r.gpu);
                    pinChain.emplace(r.pin, r.key);
                }
                nextPin = std::max(nextPin, r.pin + 1);
            },
            [&](const Unpin &r) {
                auto ref = pinChain.find(r.pin);
                if (ref == pinChain.end())
                    return;
                auto it = chains.find(ref->second);
                if (it != chains.end())
                    it->second.pins.erase(r.pin);
                pinChain.erase(ref);
            },
        },
        rec);
}

PrefixRegistry::ResyncSummary
PrefixRegistry::resyncSurvivors(Tick now)
{
    ResyncSummary out;
    std::vector<std::uint64_t> keys;
    keys.reserve(chains.size());
    for (const auto &[key, chain] : chains)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t key : keys) {
        auto it = chains.find(key);
        if (it == chains.end())
            continue; // erased by an earlier invalidation
        Chain &chain = it->second;
        bool confirmed = false;
        if (gpuAlive(chain.home)) {
            auto agent = agents.find(chain.home);
            if (agent != agents.end()) {
                // Residency probe: releasing a pin the engine does not
                // hold is a no-op, so the (false) call answers "is the
                // chain still resident" without perturbing engine pin
                // counts — and reconciles away any engine-side pin
                // whose journal record was lost with the crash. The
                // journaled pin state is then re-asserted exactly
                // once. A refusal means the chain was evicted inside
                // the crash window.
                confirmed = agent->second.setPinned(chain.key, false);
                if (confirmed && !chain.pins.empty())
                    confirmed =
                        agent->second.setPinned(chain.key, true);
            }
        }
        if (confirmed) {
            ++out.verified;
            continue;
        }
        if (promoteOrInvalidate(chain, now))
            ++out.rehomed;
        else
            ++out.invalidated;
    }
    return out;
}

std::vector<std::string>
PrefixRegistry::auditInvariants() const
{
    std::vector<std::string> violations;
    for (const auto &[key, chain] : chains) {
        if (chain.pins.empty())
            continue;
        if (!gpuAlive(chain.home))
            violations.push_back(
                "chain " + std::to_string(key) + " has " +
                std::to_string(chain.pins.size()) +
                " active pins but its home gpu" +
                std::to_string(chain.home) + " is dead");
        else if (agents.find(chain.home) == agents.end())
            violations.push_back(
                "chain " + std::to_string(key) +
                " has active pins but no agent for home gpu" +
                std::to_string(chain.home));
    }
    for (const auto &[id, key] : pinChain) {
        auto it = chains.find(key);
        if (it == chains.end() ||
            it->second.pins.find(id) == it->second.pins.end())
            violations.push_back("pin " + std::to_string(id) +
                                 " dangles: chain " +
                                 std::to_string(key) +
                                 " no longer tracks it");
    }
    return violations;
}

} // namespace aqua::cluster
