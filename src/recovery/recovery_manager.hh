/**
 * @file
 * Coordinator crash/restart orchestration.
 *
 * A coordinator_crash fault kills the coordinator process: its
 * in-memory maps (producers, tensor placements, prefix chains, pins)
 * are gone, and every southbound call in the crash window sees a
 * retryable 503. The RecoveryManager is the restart path:
 *
 *  1. *Freeze* — at crash time the prefix registry stops accepting
 *     mutating traffic (registry_rest maps frozen to 503) so engine
 *     calls racing the restart back off instead of mutating
 *     half-restored state.
 *  2. *Replay* — at restart every attached service rebuilds from its
 *     StateJournal: restore the latest snapshot, re-apply the pending
 *     tail (minus the crash's lost unflushed records).
 *  3. *Resync* — each surviving AquaLib re-asserts its ground truth
 *     (held lease, owned tensors at their survivor-believed
 *     locations) via POST /resync; the coordinator adopts what the
 *     lost tail never recorded. Tensors of consumers that never
 *     report are swept as orphans; prefix chains re-verify against
 *     their home engines, promoting replicas Harvest-style or
 *     invalidating to recompute.
 *  4. *Thaw* — the registry unfreezes and normal traffic resumes.
 *
 * Wire an instance to a FaultInjector with wire(): the injector's
 * coordinator_crash inject/recover events drive steps 1 and 2-4.
 */

#ifndef AQUA_RECOVERY_RECOVERY_MANAGER_HH
#define AQUA_RECOVERY_RECOVERY_MANAGER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "aqua/aqua_lib.hh"
#include "aqua/coordinator.hh"
#include "cluster/prefix_registry.hh"
#include "fault/fault.hh"
#include "federation/directory.hh"
#include "recovery/state_journal.hh"
#include "sim/simulation.hh"
#include "trace/trace.hh"

namespace aqua::recovery {

/** Counters across all crash/restart cycles. */
struct RecoveryStats
{
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    /** Journal records re-applied over restored snapshots. */
    std::uint64_t replayedRecords = 0;
    /** Unflushed tail records lost to crashes (lose_tail). */
    std::uint64_t droppedRecords = 0;
    /** Survivor libs whose /resync round trip succeeded. */
    std::uint64_t survivorsResynced = 0;
    /** Survivor libs that stayed unreachable (failed instances). */
    std::uint64_t survivorsUnreachable = 0;
    /** Tensors adopted from survivor reports (lost-tail repair). */
    std::uint64_t tensorsAdopted = 0;
    /** Tensors whose location was corrected from a survivor report. */
    std::uint64_t tensorsRelocated = 0;
    /** Orphaned tensors swept (consumer never re-reported). */
    std::uint64_t orphanedTensors = 0;
    std::uint64_t orphanedBytes = 0;
    /** Prefix chains re-verified by their home engine. */
    std::uint64_t chainsVerified = 0;
    /** Orphaned homes promoted from a replica. */
    std::uint64_t chainsRehomed = 0;
    /** Chains with no surviving copy (consumers recompute). */
    std::uint64_t chainsInvalidated = 0;
};

/**
 * Orchestrates coordinator crash recovery for one scale-up domain.
 */
class RecoveryManager
{
  public:
    /**
     * @param sim Shared simulation (event time for traces).
     * @param coord The domain's coordinator; its journal is attached
     *              here (attachJournal) so every durable mutation
     *              from now on is recorded.
     * @param coordJournal Journal backing the coordinator.
     */
    RecoveryManager(aqua::sim::Simulation &sim,
                    core::Coordinator &coord,
                    core::Coordinator::Journal &coordJournal);

    RecoveryManager(const RecoveryManager &) = delete;
    RecoveryManager &operator=(const RecoveryManager &) = delete;

    /**
     * Attach the domain's prefix registry and its journal; both
     * recover alongside the coordinator (the registry is
     * coordinator-hosted, so one crash takes out both).
     */
    void attachRegistry(cluster::PrefixRegistry &registry,
                        cluster::PrefixRegistry::Journal &registryJournal);

    /**
     * Attach the domain's federation directory and its journal; the
     * directory is coordinator-hosted like the registry, so one crash
     * takes out all three. Local adverts replay from the journal;
     * remote views are soft state repaired by the peers' anti-entropy
     * rounds after the thaw.
     */
    void attachFederation(
        federation::FederationDirectory &directory,
        federation::FederationDirectory::Journal &directoryJournal);

    /**
     * Register a per-GPU AquaLib as a resync participant. Instances
     * flagged failed at restart time are skipped (their tensors get
     * swept as orphans if nothing else reports them).
     */
    void registerSurvivor(core::AquaLib &lib);

    /** Audit log for recovery events. Not owned. */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /** Install this manager as @p injector's coordinator_crash
     *  hooks. */
    void wire(fault::FaultInjector &injector);

    /** Crash entry point (fault inject time). */
    void onCoordinatorCrash(aqua::sim::Tick now);

    /** Restart entry point (fault recover time). */
    void onCoordinatorRestart(aqua::sim::Tick now,
                              std::uint32_t loseTail);

    const RecoveryStats &stats() const { return counters; }

  private:
    /** One attached service's journal, type-erased. */
    struct Journaled
    {
        /** Lose the crash's unflushed tail, then replay() the owner;
         *  returns the records re-applied. */
        std::function<std::size_t(std::uint32_t loseTail)> restart;
        std::function<void()> compact;
    };

    void trace(const char *category, json::Value fields);
    /** Attach @p journal to @p owner and add both to the restart. */
    template <class Owner>
    void attach(Owner &owner, typename Owner::Journal &journal);

    aqua::sim::Simulation &sim;
    core::Coordinator &coord;
    core::Coordinator::Journal &coordJournal;
    cluster::PrefixRegistry *registry = nullptr;
    federation::FederationDirectory *federationDir = nullptr;
    /** Coordinator first, then in attach order. */
    std::vector<Journaled> journals;
    std::vector<core::AquaLib *> survivors;
    trace::TraceLog *tracer = nullptr;
    RecoveryStats counters;
};

} // namespace aqua::recovery

#endif // AQUA_RECOVERY_RECOVERY_MANAGER_HH
