/**
 * @file
 * Unit and property tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace aqua::sim;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesDuringCallbacks)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, CallbackCanScheduleMore)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            q.scheduleAfter(10, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdFails)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(invalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t : {10, 20, 30, 40})
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    EXPECT_EQ(q.runUntil(25), 2u);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.now(), 25u);
    EXPECT_EQ(q.pending(), 2u);
    q.runUntil(100);
    EXPECT_EQ(q.now(), 100u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilIncludesLimitTick)
{
    EventQueue q;
    bool fired = false;
    q.schedule(25, [&] { fired = true; });
    q.runUntil(25);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] { ++fired; });
    q.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, FiredCounterAccumulates)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.fired(), 7u);
}

/** Property: random schedules and cancels never violate ordering. */
class EventQueueProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueProperty, RandomWorkloadKeepsOrder)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    EventQueue q;
    std::vector<Tick> fireTimes;
    std::vector<EventId> live;
    std::size_t scheduled = 0;
    std::size_t cancelled = 0;
    for (int i = 0; i < 2000; ++i) {
        if (live.empty() || rng.bernoulli(0.7)) {
            Tick when = q.now() +
                        static_cast<Tick>(rng.uniformInt(0, 1000));
            live.push_back(q.schedule(when, [&fireTimes, &q] {
                fireTimes.push_back(q.now());
            }));
            ++scheduled;
        } else {
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) - 1));
            if (q.cancel(live[idx]))
                ++cancelled;
            live[idx] = live.back();
            live.pop_back();
        }
        if (rng.bernoulli(0.1))
            q.runUntil(q.now() + 50);
    }
    q.run();
    EXPECT_TRUE(std::is_sorted(fireTimes.begin(), fireTimes.end()));
    EXPECT_EQ(fireTimes.size(), scheduled - cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 7, 42, 1234));

//
// Differential property test: EventQueue against a naive reference
// model. The model is a std::multimap keyed by (tick, band) — since
// C++11 a multimap keeps equal keys in insertion order, which is
// exactly the FIFO-within-band contract — plus an id table for
// cancellation. Every operation is applied to both and every
// observable (fire order, pending count, now(), cancel and step
// results) must agree at every step.
//

namespace {

/** Naive reference: multimap in (tick, band) order, FIFO per key. */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, int band, int label, EventId id)
    {
        auto it = entries.emplace(std::make_pair(when, band),
                                  std::make_pair(label, id));
        byId[id] = it;
    }

    bool
    cancel(EventId id)
    {
        auto it = byId.find(id);
        if (it == byId.end())
            return false;
        entries.erase(it->second);
        byId.erase(it);
        return true;
    }

    /** Fire everything at or before @p limit, in order. */
    void
    runUntil(Tick limit, std::vector<int> *fired)
    {
        while (!entries.empty() &&
               entries.begin()->first.first <= limit)
            pop(fired);
    }

    /** Fire the earliest entry. @return false when empty. */
    bool
    step(std::vector<int> *fired, Tick *at)
    {
        if (entries.empty())
            return false;
        *at = entries.begin()->first.first;
        pop(fired);
        return true;
    }

    std::size_t pending() const { return entries.size(); }

  private:
    using Map = std::multimap<std::pair<Tick, int>,
                              std::pair<int, EventId>>;

    void
    pop(std::vector<int> *fired)
    {
        fired->push_back(entries.begin()->second.first);
        byId.erase(entries.begin()->second.second);
        entries.erase(entries.begin());
    }

    Map entries;
    std::map<EventId, Map::iterator> byId;
};

} // anonymous namespace

class EventQueueModel : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueModel, MatchesMultimapReference)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    EventQueue q;
    ReferenceQueue ref;
    std::vector<int> actual;
    std::vector<int> expected;
    /** Every id ever issued, fired or not — cancel() of an already
     *  fired (or already cancelled) id must agree too. */
    std::vector<EventId> ids;
    int label = 0;

    for (int op = 0; op < 3000; ++op) {
        double roll = rng.uniform();
        if (roll < 0.55 || ids.empty()) {
            Tick delta =
                static_cast<Tick>(rng.uniformInt(0, 500));
            int band = static_cast<int>(rng.uniformInt(-1, 1));
            Tick when = q.now() + delta;
            int l = label++;
            EventId id;
            if (band == 0 && rng.bernoulli(0.3))
                id = q.scheduleAfter(delta, [&actual, l] {
                    actual.push_back(l);
                });
            else
                id = q.schedule(when, band, [&actual, l] {
                    actual.push_back(l);
                });
            ref.schedule(when, band, l, id);
            ids.push_back(id);
        } else if (roll < 0.70) {
            EventId id = ids[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(ids.size()) - 1))];
            EXPECT_EQ(q.cancel(id), ref.cancel(id));
        } else if (roll < 0.85) {
            Tick limit =
                q.now() + static_cast<Tick>(rng.uniformInt(0, 300));
            q.runUntil(limit);
            ref.runUntil(limit, &expected);
            EXPECT_EQ(q.now(), limit);
        } else {
            Tick at = 0;
            bool refFired = ref.step(&expected, &at);
            EXPECT_EQ(q.step(), refFired);
            if (refFired) {
                EXPECT_EQ(q.now(), at);
            }
        }
        ASSERT_EQ(q.pending(), ref.pending())
            << "pending diverged after op " << op;
        ASSERT_EQ(actual, expected)
            << "fire sequence diverged after op " << op;
    }

    q.run();
    ref.runUntil(maxTick, &expected);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(ref.pending(), 0u);
    EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Values(1, 2, 3, 5, 7, 11, 42,
                                           1234));
