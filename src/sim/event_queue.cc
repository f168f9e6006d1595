#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace aqua::sim {

namespace {

/** Amortizes early growth; simulations schedule far more than this. */
constexpr std::size_t kInitialReserve = 1024;

} // anonymous namespace

EventQueue::EventQueue()
{
    heap.reserve(kInitialReserve);
    cancelled.reserve(kInitialReserve);
}

void
EventQueue::reserve(std::size_t events)
{
    heap.reserve(events);
    cancelled.reserve(events);
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    return schedule(when, 0, std::move(cb));
}

EventId
EventQueue::schedule(Tick when, int band, Callback cb)
{
    if (when < _now) {
        panic("scheduling event in the past: when=%llu now=%llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    EventId id = nextId++;
    if (cancelled.size() <= id) {
        // Grow geometrically: ids are dense, so a one-past resize per
        // schedule would reallocate the table on every call.
        cancelled.resize(std::max<std::size_t>(id + 1,
                                               cancelled.size() * 2),
                         false);
    }
    heap.push_back(Entry{when, band, nextSeq++, id, std::move(cb)});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++numPending;
    return id;
}

EventId
EventQueue::scheduleAfter(Tick delay, Callback cb)
{
    return schedule(_now + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    if (id == invalidEventId || id >= cancelled.size() || cancelled[id])
        return false;
    // We cannot remove from the middle of a binary heap; mark the id and
    // drop the entry lazily when it reaches the top.
    cancelled[id] = true;
    if (numPending == 0)
        return false;
    --numPending;
    return true;
}

EventQueue::Entry
EventQueue::popTop()
{
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Entry entry = std::move(heap.back());
    heap.pop_back();
    return entry;
}

void
EventQueue::skipCancelled()
{
    while (!heap.empty() && cancelled[heap.front().id])
        popTop();
}

bool
EventQueue::step()
{
    skipCancelled();
    if (heap.empty())
        return false;
    Entry entry = popTop();
    _now = entry.when;
    --numPending;
    ++numFired;
    // Mark fired so a late cancel() of this id is a no-op.
    cancelled[entry.id] = true;
    entry.cb();
    return true;
}

std::size_t
EventQueue::run()
{
    std::size_t count = 0;
    while (step())
        ++count;
    return count;
}

std::size_t
EventQueue::runUntil(Tick limit)
{
    std::size_t count = 0;
    for (;;) {
        skipCancelled();
        if (heap.empty() || heap.front().when > limit)
            break;
        step();
        ++count;
    }
    if (_now < limit)
        _now = limit;
    return count;
}

} // namespace aqua::sim
