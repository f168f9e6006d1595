#include "recovery/replay_check.hh"

#include "recovery/state_journal.hh"
#include "sim/simulation.hh"

namespace aqua::recovery {

namespace {

std::vector<std::string>
compare(const char *owner, const json::Value &live,
        const json::Value &replayed)
{
    std::string l = live.dump();
    std::string r = replayed.dump();
    if (l == r)
        return {};
    return {std::string(owner) + " replay diverges from live\n  live:     " +
            l + "\n  replayed: " + r};
}

/** A coordinator export without the heartbeat soft state. */
json::Value
journaledState(const core::Coordinator &c)
{
    json::Value v = c.exportState();
    // /heartbeat rewrites a producer's hb and alive without a record,
    // by design: a record per heartbeat would flood the journal, and
    // after a crash each resyncing donor's LeaseSet re-asserts both.
    for (json::Value &p : v["producers"].asArray()) {
        p.asObject().erase("hb");
        p.asObject().erase("alive");
    }
    return v;
}

} // anonymous namespace

std::vector<std::string>
replayDivergence(const core::Coordinator &live,
                 const core::Coordinator::Journal &journal)
{
    core::Coordinator fresh;
    replay(fresh, journal);
    std::vector<std::string> out = compare(
        "coordinator", journaledState(live), journaledState(fresh));
    for (const std::string &v : fresh.auditInvariants())
        out.push_back("replayed coordinator: " + v);
    return out;
}

std::vector<std::string>
replayDivergence(const cluster::PrefixRegistry &live,
                 const cluster::PrefixRegistry::Journal &journal)
{
    cluster::PrefixRegistry fresh;
    replay(fresh, journal);
    return compare("registry", live.exportState(), fresh.exportState());
}

std::vector<std::string>
replayDivergence(const federation::FederationDirectory &live,
                 const federation::FederationDirectory::Journal &journal)
{
    // A directory claims its registry's chain observer, so the fresh
    // one gets its own registry (and clock).
    aqua::sim::Simulation sim;
    cluster::PrefixRegistry registry;
    federation::FederationDirectory fresh(sim, registry, live.config());
    replay(fresh, journal);
    return compare("directory", live.exportState(), fresh.exportState());
}

} // namespace aqua::recovery
