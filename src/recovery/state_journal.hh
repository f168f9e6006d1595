/**
 * @file
 * Append-only, snapshot-compacted journal of durable control-plane
 * mutations.
 *
 * Three services write every durable state change through a
 * StateJournal: the coordinator, the cluster prefix registry and the
 * federation directory. Each declares its own `Record`, a
 * std::variant with one small struct per journaled op, and an
 * `apply(const Record &)` that is the only code changing its
 * journaled maps: a live method decides, applies the record, then
 * appends it here. A crashed coordinator restarts cold and rebuilds
 * each service with replay(): restore the latest snapshot, then
 * apply the pending tail through that same apply. Replay therefore
 * equals live by construction. The journal is the only thing that
 * survives a coordinator_crash fault; nothing outside the process
 * reads it, so records stay typed and need no codec.
 *
 * Compaction: once the pending tail grows past compactEvery records,
 * the journal asks its owner (via the snapshot provider) for a full
 * exportState() JSON snapshot, stores it, and drops the tail. This
 * bounds replay time the same way a real write-ahead log's
 * checkpointing does.
 *
 * dropTail() models the crash losing the last few *unflushed* records
 * — the window between the owner's in-memory append and the durable
 * media. Resync against survivor reports is what makes that loss safe.
 */

#ifndef AQUA_RECOVERY_STATE_JOURNAL_HH
#define AQUA_RECOVERY_STATE_JOURNAL_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "json/json.hh"

namespace aqua::recovery {

struct StateJournalConfig
{
    /** Pending records that trigger auto-compaction (0 = never). */
    std::size_t compactEvery = 256;
};

struct StateJournalStats
{
    std::uint64_t appends = 0;
    std::uint64_t compactions = 0;
    /** Records folded into snapshots by compaction. */
    std::uint64_t compactedRecords = 0;
    /** Records lost to dropTail() (simulated unflushed tail). */
    std::uint64_t droppedRecords = 0;
};

/** A journal of one owner's typed records. */
template <class Record>
class StateJournal
{
  public:
    explicit StateJournal(StateJournalConfig cfg = {}) : cfg(cfg) {}

    StateJournal(const StateJournal &) = delete;
    StateJournal &operator=(const StateJournal &) = delete;

    /**
     * Install the owner's full-state exporter. Compaction calls it to
     * fold the pending tail into a fresh snapshot; without a provider
     * the journal never compacts (the tail just grows).
     */
    void
    setSnapshotProvider(std::function<json::Value()> provider)
    {
        snapshotFn = std::move(provider);
    }

    /** Append one applied mutation; may trigger auto-compaction. */
    void
    append(Record r)
    {
        tail.push_back(std::move(r));
        ++counters.appends;
        if (cfg.compactEvery > 0 && snapshotFn &&
            tail.size() >= cfg.compactEvery)
            compact();
    }

    /** Fold the pending tail into a fresh snapshot now. */
    void
    compact()
    {
        if (!snapshotFn)
            return;
        snap = snapshotFn();
        counters.compactedRecords += tail.size();
        tail.clear();
        ++counters.compactions;
    }

    /**
     * Chaos knob: lose the newest @p n pending records, as a crash
     * would lose the unflushed tail of a real log.
     */
    void
    dropTail(std::size_t n)
    {
        std::size_t drop = std::min(n, tail.size());
        tail.resize(tail.size() - drop);
        counters.droppedRecords += drop;
    }

    /** Latest compacted snapshot, if any. */
    const std::optional<json::Value> &snapshot() const { return snap; }

    /** Records appended since the last compaction, oldest first. */
    const std::vector<Record> &pending() const { return tail; }

    const StateJournalStats &stats() const { return counters; }

  private:
    StateJournalConfig cfg;
    std::function<json::Value()> snapshotFn;
    std::optional<json::Value> snap;
    std::vector<Record> tail;
    StateJournalStats counters;
};

/** Visitor over a Record: one lambda per record struct. */
template <class... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/**
 * Cold-restart @p owner from @p journal: drop its state, restore the
 * latest snapshot, then re-apply the pending tail.
 * @return Records re-applied.
 */
template <class Owner>
std::size_t
replay(Owner &owner, const StateJournal<typename Owner::Record> &journal)
{
    owner.reset();
    if (journal.snapshot())
        owner.restoreState(*journal.snapshot());
    for (const typename Owner::Record &r : journal.pending())
        owner.apply(r);
    return journal.pending().size();
}

} // namespace aqua::recovery

#endif // AQUA_RECOVERY_STATE_JOURNAL_HH
