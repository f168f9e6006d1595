/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are callbacks scheduled at absolute ticks. Events scheduled for
 * the same tick fire in schedule order (FIFO), which makes simulations
 * reproducible regardless of heap internals. Scheduled events can be
 * cancelled through the EventId token returned at schedule time.
 *
 * Same-tick ordering can additionally be controlled through a small
 * signed *band*: at one tick, lower bands fire before higher bands,
 * and within a band schedule order still applies. Bands exist for
 * DomainNet's cross-domain deliveries, which must fire ahead of
 * same-tick local events in an order that does not depend on when the
 * delivery was enqueued (see domain_net.hh).
 */

#ifndef AQUA_SIM_EVENT_QUEUE_HH
#define AQUA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/ticks.hh"

namespace aqua::sim {

/** Opaque handle identifying a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Priority queue of timed callbacks with a simulated clock.
 *
 * The queue owns the notion of "now": the timestamp of the event that is
 * currently firing (or the last one that fired). Scheduling in the past
 * is a programming error and panics.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Pre-size the heap (and cancellation table) for @p events. */
    void reserve(std::size_t events);

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute simulated time; must be >= now().
     * @param cb Callback to fire.
     * @return Token that can be passed to cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /**
     * Schedule into an explicit same-tick band.
     *
     * At equal ticks, all band-b events fire before any band-(b+1)
     * events regardless of schedule order; FIFO applies within a
     * band. Plain schedule() uses band 0.
     */
    EventId schedule(Tick when, int band, Callback cb);

    /** Schedule a callback @p delay ticks after now(). */
    EventId scheduleAfter(Tick delay, Callback cb);

    /**
     * Cancel a previously scheduled event.
     *
     * @retval true The event was pending and has been cancelled.
     * @retval false The event already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /** Whether any events remain pending. */
    bool empty() const { return numPending == 0; }

    /** Number of pending (not cancelled) events. */
    std::size_t pending() const { return numPending; }

    /**
     * Run events until the queue drains.
     *
     * @return Number of events fired.
     */
    std::size_t run();

    /**
     * Run events with timestamps <= @p limit; afterwards now() == limit
     * (unless the queue drained at an earlier time, in which case now()
     * is still advanced to @p limit so follow-on scheduling is sane).
     *
     * @return Number of events fired.
     */
    std::size_t runUntil(Tick limit);

    /** Fire exactly one event if one is pending. @return true if fired. */
    bool step();

    /** Total events fired over the queue's lifetime. */
    std::uint64_t fired() const { return numFired; }

  private:
    struct Entry
    {
        Tick when;
        int band;
        std::uint64_t seq;
        EventId id;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.band != b.band)
                return a.band > b.band;
            return a.seq > b.seq;
        }
    };

    /** Pop cancelled entries off the heap top. */
    void skipCancelled();

    /** Move the earliest entry out of the heap (must be non-empty). */
    Entry popTop();

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    EventId nextId = 1;
    std::size_t numPending = 0;
    std::uint64_t numFired = 0;
    /**
     * Binary min-heap on (when, seq) kept by std::push_heap /
     * std::pop_heap over a plain vector. Compared to
     * std::priority_queue this lets pops MOVE the callback out
     * (top() only exposes a const reference, forcing a copy of the
     * std::function and its captures on every fire) and lets the
     * backing storage be reserved up front.
     */
    std::vector<Entry> heap;
    /** Ids cancelled while still on the heap. */
    std::vector<bool> cancelled;
};

} // namespace aqua::sim

#endif // AQUA_SIM_EVENT_QUEUE_HH
