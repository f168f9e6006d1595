/**
 * @file
 * The AQUA central coordinator (§3).
 *
 * One coordinator runs per fast inter-GPU domain (server). It keeps a
 * thread-safe registry of HBM producers (GPUs that leased out spare
 * memory), consumers, and the AQUA TENSORS allocated against those
 * leases. Per §4, the placer assigns each consumer exactly one
 * producer, so allocation never shares a producer's NVLink bandwidth
 * across consumers.
 *
 * The coordinator exposes the same endpoints as the paper's REST API
 * (/lease, /allocate, /free, /respond, /reclaim_request,
 * /reclaim_status) via aqua::core::RestRouter; this header is the
 * direct (in-process) interface underneath those endpoints.
 */

#ifndef AQUA_AQUA_COORDINATOR_HH
#define AQUA_AQUA_COORDINATOR_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "aqua/types.hh"
#include "hw/gpu.hh"
#include "json/json.hh"
#include "sim/ticks.hh"

namespace aqua::recovery {
template <class Record>
class StateJournal;
} // namespace aqua::recovery

namespace aqua::core {

/** One migration order returned by respond(). */
struct MigrationOrder
{
    TensorId tensor = invalidTensor;
    std::uint64_t bytes = 0;
    Location from;
    Location to;
    /**
     * The source producer's lease is dead (crashed or expired): the
     * consumer must evacuate before the donor's memory goes dark,
     * ahead of any foreground work.
     */
    bool emergency = false;
    /**
     * Urgency of the reclaim behind an evacuation order: urgent
     * reclaims flush, graceful ones are staged (see
     * setGracefulEvacBatch). Promotions are always Graceful.
     */
    ReclaimUrgency urgency = ReclaimUrgency::Urgent;
};

/** A producer's lease book-keeping, as tracked by the coordinator. */
struct ProducerState
{
    std::uint64_t leasedBytes = 0;
    std::uint64_t usedBytes = 0;
    bool reclaimRequested = false;
    /** Urgency of the outstanding reclaim (meaningful only while
     *  reclaimRequested). */
    ReclaimUrgency reclaimUrgency = ReclaimUrgency::Urgent;
    /** False once the lease TTL expired without a heartbeat. */
    bool alive = true;
    /** Last /lease or /heartbeat time (ticks). */
    aqua::sim::Tick lastHeartbeat = 0;
};

/** Outcome of Coordinator::lease(). */
enum class LeaseResult
{
    Ok,
    /**
     * The producer asked for its memory back and tensors still occupy
     * the lease; it cannot offer more until the reclaim drains
     * (otherwise the new offer would race the evacuation).
     */
    ReclaimOutstanding,
};

/** Outcome of Coordinator::releaseLease(). */
enum class ReleaseResult
{
    Ok,
    UnknownProducer,
    /** Tensors still occupy the lease; reclaim first. */
    StillOccupied,
};

/**
 * Central thread-safe datastore for memory offers, requests and tensor
 * placement.
 */
class Coordinator
{
  public:
    Coordinator() = default;

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    //
    // Placement wiring (done by AQUA-PLACER before models start, §4).
    //

    /** Statically pair @p consumer with @p producer. */
    void assignProducer(hw::GpuId consumer, hw::GpuId producer);

    /** Producer assigned to @p consumer, if any. */
    std::optional<hw::GpuId> producerFor(hw::GpuId consumer) const;

    //
    // Producer endpoints.
    //

    /**
     * /lease: a producer offers @p bytes of its HBM.
     * Offers accumulate; a successful lease clears any reclaim flag
     * and revives the lease (fresh heartbeat at @p now).
     *
     * @return ReclaimOutstanding if the producer has an unfinished
     *         reclaim (tensors still resident); the offer is ignored.
     */
    LeaseResult lease(hw::GpuId producer, std::uint64_t bytes,
                      aqua::sim::Tick now = 0);

    /**
     * /heartbeat: producer liveness signal for the lease TTL.
     * @return false for a producer with no lease (REST: 404).
     */
    bool heartbeat(hw::GpuId producer, aqua::sim::Tick now);

    /**
     * Lease TTL: a producer whose last heartbeat is older than
     * @p ttl at expiry-check time has its lease marked dead and a
     * reclaim raised on its behalf. 0 (the default) disables expiry.
     */
    void setLeaseTtl(aqua::sim::Tick ttl);

    /**
     * Expire leases whose heartbeat is older than the TTL at @p now.
     * Also run lazily by respond()/allocate() when they get a time.
     * @return Producers newly marked dead.
     */
    std::vector<hw::GpuId> expireLeases(aqua::sim::Tick now);

    /** Whether a producer holds a live (non-expired) lease. */
    bool leaseAlive(hw::GpuId producer) const;

    /**
     * /reclaim_request: producer wants its memory back. Consumers see
     * migration orders on their next /respond. Idempotent; an Urgent
     * re-request upgrades a Graceful one in flight (never the other
     * way — urgency only ratchets up while a reclaim drains).
     */
    void requestReclaim(hw::GpuId producer,
                        ReclaimUrgency urgency = ReclaimUrgency::Urgent);

    /**
     * Staged evacuation: cap on evacuation orders a single respond()
     * hands one consumer for *graceful* reclaims, so the consumer
     * keeps iterating between copies instead of absorbing a
     * stop-the-world flush. 0 (the default) disables staging; urgent
     * and emergency (dead-lease) evacuations are never capped.
     */
    void setGracefulEvacBatch(std::size_t ordersPerRespond);

    /**
     * /reclaim_status: true once no tensor occupies the producer's
     * lease any more (the producer may then release the region).
     */
    bool reclaimComplete(hw::GpuId producer) const;

    /**
     * Producer releases its lease after a completed reclaim (or when
     * shutting down with no tensors resident).
     *
     * @return StillOccupied while tensors occupy the lease (REST:
     *         409) — the caller must reclaim and wait for the drain.
     */
    ReleaseResult releaseLease(hw::GpuId producer);

    /** Current lease state of a producer (zeroes when unknown). */
    ProducerState producerState(hw::GpuId producer) const;

    //
    // Consumer endpoints.
    //

    /**
     * /allocate: place a new AQUA TENSOR for @p consumer.
     *
     * Placement policy (§3): the assigned producer's lease if it has
     * room and is not reclaiming; host DRAM otherwise.
     *
     * @return Tensor id and chosen location.
     */
    struct Allocation
    {
        TensorId id;
        Location location;
    };
    Allocation allocate(hw::GpuId consumer, std::uint64_t bytes,
                        aqua::sim::Tick now = 0);

    /** /free: drop a tensor and return its lease bytes. */
    void free(TensorId id);

    /**
     * /free from the REST edge: as free(), but an id the coordinator
     * does not hold changes nothing. An orphan sweep after a restart
     * drops the tensors of a survivor that could not resync, and that
     * survivor still frees them later.
     *
     * @return false if @p id is unknown.
     */
    bool freeIfKnown(TensorId id);

    /**
     * /respond: migration orders pending for @p consumer.
     *
     * Orders move tensors off reclaiming producers to DRAM, and
     * opportunistically promote DRAM tensors back onto the assigned
     * producer's lease when space is available (§B, get_tensors_to_move
     * "selectively invokes /allocate ... to move it to a faster
     * interconnected GPU").
     *
     * Issuing an order reserves its destination; the consumer must call
     * doneMoving() for each order when the copy completes.
     *
     * When @p now is non-zero, expired leases are collected first, so
     * orders off a dead producer come back flagged emergency.
     */
    std::vector<MigrationOrder> respond(hw::GpuId consumer,
                                        aqua::sim::Tick now = 0);

    /** Consumer reports one migration order's copy as complete. */
    void doneMoving(const MigrationOrder &order);

    /** Location of a live tensor. */
    Location tensorLocation(TensorId id) const;

    /** Number of live tensors. */
    std::size_t liveTensors() const;

    /** Total bytes currently placed on producers / in DRAM. */
    std::uint64_t bytesOnProducers() const;
    std::uint64_t bytesInDram() const;

    //
    // Crash recovery (src/recovery). Every durable mutation is one
    // Record, apply()d live and on replay alike (state_journal.hh).
    // Heartbeats are soft state: /heartbeat rewrites lastHeartbeat and
    // alive without a record, and a resync's LeaseSet re-asserts both.
    //

    /** @p consumer is statically paired with @p producer. */
    struct Assign
    {
        hw::GpuId consumer = hw::hostDramId;
        hw::GpuId producer = hw::hostDramId;
    };
    /** A producer offered @p bytes more; the lease revives at @p now. */
    struct Lease
    {
        hw::GpuId gpu = hw::hostDramId;
        std::uint64_t bytes = 0;
        aqua::sim::Tick now = 0;
    };
    /** A resyncing donor re-asserted a lease of at least @p bytes. */
    struct LeaseSet
    {
        hw::GpuId gpu = hw::hostDramId;
        std::uint64_t bytes = 0;
        aqua::sim::Tick now = 0;
    };
    struct Ttl
    {
        aqua::sim::Tick ticks = 0;
    };
    struct EvacBatch
    {
        std::size_t orders = 0;
    };
    /** The lease died (TTL expiry, or a donor that never resynced). */
    struct Expire
    {
        hw::GpuId gpu = hw::hostDramId;
    };
    /** A reclaim raised, at its ratcheted urgency. */
    struct Reclaim
    {
        hw::GpuId gpu = hw::hostDramId;
        ReclaimUrgency urgency = ReclaimUrgency::Urgent;
    };
    struct Release
    {
        hw::GpuId gpu = hw::hostDramId;
    };
    /** A tensor placed (the policy's outcome). An adopted one comes from
     *  a survivor's report; the lease grows to cover it. */
    struct Alloc
    {
        TensorId tensor = invalidTensor;
        hw::GpuId consumer = hw::hostDramId;
        std::uint64_t bytes = 0;
        Location location;
        bool adopt = false;
    };
    /** A tensor dropped: freed, or swept as an orphan. */
    struct Free
    {
        TensorId tensor = invalidTensor;
    };
    /** A migration order issued; a peer destination is reserved. */
    struct Order
    {
        TensorId tensor = invalidTensor;
        Location to;
    };
    /** A migration landed at @p to. */
    struct Done
    {
        TensorId tensor = invalidTensor;
        Location to;
    };
    /** Survivor truth: the tensor sits at @p location with no
     *  migration in flight. */
    struct Relocate
    {
        TensorId tensor = invalidTensor;
        Location location;
    };
    using Record =
        std::variant<Assign, Lease, LeaseSet, Ttl, EvacBatch, Expire,
                     Reclaim, Release, Alloc, Free, Order, Done, Relocate>;
    using Journal = aqua::recovery::StateJournal<Record>;

    /** Attach (or detach, with nullptr) the write-ahead journal. */
    void attachJournal(Journal *j);

    /** Full-state export, suitable as a journal snapshot. */
    json::Value exportState() const;

    /** Drop all state; the coordinator restarts cold. The attached
     *  journal and its contents survive (they are the durable media). */
    void reset();

    /** Restore a full-state export taken by exportState(). */
    void restoreState(const json::Value &snapshot);

    /** Apply one record: the only change to journaled state, live
     *  and on replay (never re-journaled). */
    void apply(const Record &r);

    /** One tensor a survivor reports holding, with where it lives. */
    struct SurvivorTensor
    {
        TensorId id = invalidTensor;
        std::uint64_t bytes = 0;
        Location location;
    };

    struct ResyncSummary
    {
        /** Tensors the journal had lost; re-created from the report. */
        std::size_t adopted = 0;
        /** Tensors whose journaled location disagreed; survivor wins. */
        std::size_t relocated = 0;
        /** Tensors the journal already agreed on. */
        std::size_t confirmed = 0;
        /** Lease bytes raised to match the survivor's view. */
        bool leaseAdopted = false;
    };

    /**
     * /resync: one survivor re-asserts its state after a coordinator
     * restart. The survivor is ground truth — it physically holds the
     * bytes — so unknown tensors are adopted, disagreeing locations
     * corrected, and any journaled in-flight migration for a reported
     * tensor cleared (the survivor re-drives it via /respond).
     * @p leaseBytes re-asserts a donor lease (producers report it;
     * pure consumers pass nullopt).
     */
    ResyncSummary resync(hw::GpuId gpu,
                         std::optional<std::uint64_t> leaseBytes,
                         const std::vector<SurvivorTensor> &held,
                         aqua::sim::Tick now);

    struct OrphanSweep
    {
        /** Tensors of non-reporting consumers, journaled as lost. */
        std::size_t droppedTensors = 0;
        std::uint64_t droppedBytes = 0;
        /** Producers that never resynced; leases marked dead. */
        std::size_t deadProducers = 0;
    };

    /**
     * After every survivor resynced, drop state owned by GPUs that
     * never reported: their tensors are journaled-lost (the consumer
     * recomputes on return) and their leases marked dead so resident
     * tensors evacuate as emergencies.
     */
    OrphanSweep sweepOrphans(const std::vector<hw::GpuId> &reporters);

    /**
     * Global safety audit: per-producer used-byte accounting must
     * equal the sum of resident + inbound-migrating tensor bytes, no
     * tensor may sit on an unknown producer, and no lease may be
     * oversubscribed (double-granted). Returns human-readable
     * violations; empty = consistent.
     */
    std::vector<std::string> auditInvariants() const;

  private:
    struct TensorState
    {
        TensorId id = invalidTensor;
        hw::GpuId consumer = hw::hostDramId;
        std::uint64_t bytes = 0;
        Location location;
        /** In-flight migration destination, if any. */
        std::optional<Location> migratingTo;
    };

    Allocation allocateLocked(hw::GpuId consumer, std::uint64_t bytes);
    std::vector<hw::GpuId> expireLeasesLocked(aqua::sim::Tick now);
    void applyLocked(const Record &r);
    /** Apply @p r, then journal it (if a journal is attached). */
    void commitLocked(Record r);
    json::Value exportStateLocked() const;

    mutable std::mutex mtx;
    TensorId nextTensor = 1;
    aqua::sim::Tick ttl = 0;
    std::size_t gracefulBatch = 0;
    std::map<hw::GpuId, ProducerState> producers;
    std::map<hw::GpuId, hw::GpuId> assignments;
    std::map<TensorId, TensorState> tensors;
    Journal *journal = nullptr;
};

} // namespace aqua::core

#endif // AQUA_AQUA_COORDINATOR_HH
