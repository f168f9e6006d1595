#include "recovery/recovery_manager.hh"

#include <utility>

namespace aqua::recovery {

using aqua::sim::Tick;
using json::Value;

template <class Owner>
void
RecoveryManager::attach(Owner &owner, typename Owner::Journal &journal)
{
    owner.attachJournal(&journal);
    auto restart = [this, &owner, &journal](std::uint32_t loseTail) {
        std::uint64_t before = journal.stats().droppedRecords;
        journal.dropTail(loseTail);
        counters.droppedRecords += journal.stats().droppedRecords - before;
        return replay(owner, journal);
    };
    journals.push_back({restart, [&journal] { journal.compact(); }});
}

RecoveryManager::RecoveryManager(aqua::sim::Simulation &sim,
                                 core::Coordinator &coord,
                                 core::Coordinator::Journal &coordJournal)
    : sim(sim), coord(coord), coordJournal(coordJournal)
{
    attach(coord, coordJournal);
}

void
RecoveryManager::attachRegistry(cluster::PrefixRegistry &reg,
                                cluster::PrefixRegistry::Journal &journal)
{
    registry = &reg;
    attach(reg, journal);
}

void
RecoveryManager::attachFederation(
    federation::FederationDirectory &dir,
    federation::FederationDirectory::Journal &journal)
{
    federationDir = &dir;
    attach(dir, journal);
}

void
RecoveryManager::registerSurvivor(core::AquaLib &lib)
{
    survivors.push_back(&lib);
}

void
RecoveryManager::wire(fault::FaultInjector &injector)
{
    injector.setCoordinatorCrashHooks(
        [this](Tick now) { onCoordinatorCrash(now); },
        [this](Tick now, std::uint32_t loseTail) {
            onCoordinatorRestart(now, loseTail);
        });
}

void
RecoveryManager::trace(const char *category, Value fields)
{
    if (tracer)
        tracer->emit(sim.now(), category, std::move(fields));
}

void
RecoveryManager::onCoordinatorCrash(Tick now)
{
    ++counters.crashes;
    // Mutating registry traffic racing the dead coordinator must back
    // off retryably, not assert on half-torn-down state.
    if (registry)
        registry->setFrozen(true);
    if (federationDir)
        federationDir->setFrozen(true);
    Value ev;
    ev["crash"] = static_cast<std::int64_t>(counters.crashes);
    ev["pending_records"] =
        static_cast<std::int64_t>(coordJournal.pending().size());
    trace("recovery_freeze", std::move(ev));
    (void)now;
}

void
RecoveryManager::onCoordinatorRestart(Tick now,
                                      std::uint32_t loseTail)
{
    ++counters.restarts;

    // The crash loses each journal's unflushed tail: the newest
    // records never reached durable media. Survivor resync below is
    // what makes that loss safe. Then the cold restart: snapshot plus
    // tail replay rebuilds every service.
    std::size_t replayed = 0;
    for (const Journaled &j : journals)
        replayed += j.restart(loseTail);
    counters.replayedRecords += replayed;
    {
        Value ev;
        ev["replayed"] = static_cast<std::int64_t>(replayed);
        ev["lost_tail"] = static_cast<std::int64_t>(loseTail);
        trace("recovery_replay", std::move(ev));
    }

    // Survivor resync: every live AquaLib re-asserts its lease and
    // tensor ground truth; what replay missed (the lost tail) is
    // adopted from these reports.
    std::vector<hw::GpuId> reporters;
    for (core::AquaLib *lib : survivors) {
        if (lib->isFailed()) {
            ++counters.survivorsUnreachable;
            continue;
        }
        if (lib->resyncWithCoordinator()) {
            ++counters.survivorsResynced;
            reporters.push_back(lib->gpuId());
        } else {
            ++counters.survivorsUnreachable;
        }
    }

    // Whatever no survivor re-reported is gone with its owner: sweep
    // the tensors so accounting matches reality, and mark silent
    // producers for urgent reclaim.
    core::Coordinator::OrphanSweep sweep = coord.sweepOrphans(reporters);
    counters.orphanedTensors += sweep.droppedTensors;
    counters.orphanedBytes += sweep.droppedBytes;

    // Prefix chains re-verify against their home engines; orphaned
    // homes promote a replica (Harvest-style) or invalidate so
    // consumers recompute instead of reading ghost blocks.
    if (registry) {
        cluster::PrefixRegistry::ResyncSummary rs =
            registry->resyncSurvivors(now);
        counters.chainsVerified += rs.verified;
        counters.chainsRehomed += rs.rehomed;
        counters.chainsInvalidated += rs.invalidated;
        registry->setFrozen(false);
    }

    // The federation directory thaws last: its local adverts replayed
    // from the journal; remote views are soft state the peers'
    // anti-entropy rounds re-converge once we answer routes again.
    if (federationDir)
        federationDir->setFrozen(false);

    // Fold the post-recovery state into a fresh snapshot: the next
    // crash replays from here instead of re-walking the resync.
    for (const Journaled &j : journals)
        j.compact();

    Value ev;
    ev["restart"] = static_cast<std::int64_t>(counters.restarts);
    ev["survivors"] =
        static_cast<std::int64_t>(counters.survivorsResynced);
    ev["orphaned_tensors"] =
        static_cast<std::int64_t>(sweep.droppedTensors);
    ev["orphaned_bytes"] =
        static_cast<std::int64_t>(sweep.droppedBytes);
    trace("recovery_complete", std::move(ev));
}

} // namespace aqua::recovery
