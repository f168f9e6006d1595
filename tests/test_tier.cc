/**
 * @file
 * Tests for the SSD storage tier: the device model (sequential vs
 * random ramp, queue-depth parallelism, degradation and failure), the
 * tier-local DRAM↔SSD move paths, SsdTier's age demotion policy
 * and stream-vs-recompute crossover, the transfer plan's SSD route
 * (double-buffered overlap, cancellation and bounce-slot reuse under
 * predictor misses; the flat StagingEngine's own coverage lives in
 * test_staging.cc, the fabric route's in test_federation.cc), and
 * SsdTier's park/resume/demote lifecycle.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "hw/ssd.hh"
#include "serve/ssd_tier.hh"
#include "serve/transfer_plan.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {
constexpr model::KvPrecision fp16 = model::KvPrecision::Fp16;
} // anonymous namespace

//
// hw::Ssd device model.
//

TEST(Ssd, SmallRandomAccessesFarSlowerThanSequential)
{
    hw::Ssd ssd;
    std::uint64_t bytes = 256 * mib;
    Tick sequential = ssd.readDuration(bytes, 1);
    // Same payload as 4 KiB random reads: every access pays the fixed
    // latency and the slow end of the bandwidth ramp.
    Tick random = ssd.readDuration(4 * kib, bytes / (4 * kib));
    EXPECT_GT(random, 5 * sequential);
}

TEST(Ssd, QueueDepthBoundsParallelism)
{
    hw::Ssd ssd; // queueDepth 8
    Tick oneWave = ssd.readDuration(mib, 8);
    Tick twoWaves = ssd.readDuration(mib, 16);
    // 16 accesses over 8 channels queue into two back-to-back waves.
    EXPECT_GT(twoWaves, oneWave);
    EXPECT_NEAR(static_cast<double>(twoWaves),
                2.0 * static_cast<double>(oneWave),
                0.1 * static_cast<double>(twoWaves));
}

TEST(Ssd, WritesSlowerThanReads)
{
    hw::Ssd ssd; // 7 GB/s read vs 5 GB/s write
    EXPECT_GT(ssd.writeDuration(256 * mib, 1),
              ssd.readDuration(256 * mib, 1));
}

TEST(Ssd, DegradationScalesMediaTime)
{
    hw::Ssd ssd;
    Tick healthy = ssd.readDuration(256 * mib, 1);
    ssd.setDegradation(0.5);
    Tick throttled = ssd.readDuration(256 * mib, 1);
    EXPECT_GT(throttled, healthy);
    ssd.setDegradation(1.0);
    EXPECT_EQ(ssd.readDuration(256 * mib, 1), healthy);
}

TEST(Ssd, BusyChannelsQueueFollowUpAccesses)
{
    hw::Ssd ssd;
    Tick first = ssd.read(32 * mib, 8, 0);
    Tick second = ssd.read(32 * mib, 8, 0);
    // The second burst finds every channel busy and queues behind.
    EXPECT_GT(second, first);
    EXPECT_EQ(ssd.bytesRead(), 2u * 8u * 32 * mib);
}

TEST(Ssd, FailedDeviceAccessPanics)
{
    hw::Ssd ssd;
    ssd.setFailed(true);
    EXPECT_DEATH(ssd.read(mib, 1, 0), "failed");
    EXPECT_DEATH(ssd.write(mib, 1, 0), "failed");
    ssd.setFailed(false);
    EXPECT_GT(ssd.read(mib, 1, 0), Tick(0));
}

//
// Tier-local move paths (DRAM↔SSD behind the GPUs' PCIe ports).
//

TEST(SsdBackend, TierLocalMovesSkipThePcieLinks)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdBackend &ssd = tb.makeSsdBackend(0);
    auto handle = ssd.alloc(64 * mib);
    ASSERT_TRUE(handle);

    std::uint64_t hostBefore = tb.server().topology().hostBytesMoved();
    ssd.writeFromDram(*handle, 64 * mib, 4);
    ssd.readToDram(*handle, 64 * mib, 4);
    // Media counters move; the GPU-facing PCIe byte counters do not.
    EXPECT_EQ(tb.server().topology().hostBytesMoved(), hostBefore);
    EXPECT_EQ(tb.server().ssd().bytesWritten(), 64 * mib);
    EXPECT_EQ(tb.server().ssd().bytesRead(), 64 * mib);
    ssd.free(*handle);
}

TEST(SsdBackend, GpuReadPaysMediaOnTopOfPcie)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdBackend &ssd = tb.makeSsdBackend(0);
    serve::DramBackend &dram = tb.makeDramBackend(1);
    std::uint64_t bytes = 256 * mib;
    auto hs = ssd.alloc(bytes);
    auto hd = dram.alloc(bytes);
    hw::TransferTiming ts = ssd.read(*hs, bytes, 1);
    hw::TransferTiming td = dram.read(*hd, bytes, 1);
    EXPECT_GT(ts.complete - ts.start, td.complete - td.start);
    ssd.free(*hs);
    dram.free(*hd);
}

TEST(SsdBackend, ScatteredAccessesRouteThroughStaging)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdBackend &ssd = tb.makeSsdBackend(0); // useStaging defaults on
    auto handle = ssd.alloc(64 * mib);
    ssd.read(*handle, 64 * mib, 64);
    EXPECT_TRUE(ssd.staged());
    EXPECT_GT(ssd.stagingStats().stagedTransfers, 0u);
    EXPECT_EQ(ssd.stagingStats().coalescedDescriptors, 64u);
    ssd.free(*handle);
}

//
// SsdTier's demotion policy and resume crossover. The suite keeps the
// name of the class that used to hold this policy, so test ids stay
// stable.
//

TEST(TierManager, AgeSelectsColdUnpinnedDramItems)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0); // parkAfterSec 30
    tier.noteOffloaded(1, 0);
    tier.noteOffloaded(2, 0);
    tier.noteOffloaded(2, secToTicks(29.0));

    auto picks = tier.selectDemotions(secToTicks(35.0), false);
    // Item 1 aged 35 s; item 2's last touch is 6 s old.
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 1u);
}

TEST(TierManager, PressureTightensTheThreshold)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0); // 30 s normally, 2 s under pressure
    tier.noteOffloaded(1, 0);
    Tick now = secToTicks(5.0);
    EXPECT_TRUE(tier.selectDemotions(now, false).empty());
    EXPECT_EQ(tier.selectDemotions(now, true).size(), 1u);
}

TEST(TierManager, DemotionBudgetCapsEachSettle)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    for (std::uint64_t k = 1; k <= 10; ++k)
        tier.noteOffloaded(k, 0);
    EXPECT_EQ(tier.selectDemotions(secToTicks(60.0), false).size(),
              SsdTier::maxDemotionsPerSettle);
}

TEST(TierManager, LevelTracksDemotionAndPromotion)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    serve::DramBackend &dram = tb.makeDramBackend(0);
    auto handle = dram.alloc(2 * mib);
    ASSERT_TRUE(handle);
    tier.noteOffloaded(7, 0);
    tier.noteOffloaded(7, 0);
    EXPECT_EQ(tier.trackedCount(), 1u);
    auto moved = tier.demote(7, dram, *handle, 1, secToTicks(1.0));
    ASSERT_TRUE(moved);
    // SSD-resident tails are not demotion candidates.
    EXPECT_EQ(tier.trackedCount(), 0u);
    EXPECT_TRUE(tier.selectDemotions(secToTicks(100.0), true).empty());
    // Swap-in promotes the tail; its next swap-out starts a fresh
    // age.
    tier.forgetOffloaded(7);
    tier.backend().free(*moved);
    tier.noteOffloaded(7, secToTicks(2.0));
    auto picks = tier.selectDemotions(secToTicks(33.0), false);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 7u);
    tier.forgetOffloaded(7);
    EXPECT_EQ(tier.trackedCount(), 0u);
}

TEST(TierManager, ResumeDecisionCrossover)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0); // resumeSafetyFactor 1.1
    // Stream clearly cheaper than recompute.
    EXPECT_TRUE(tier.streamWins(msToTicks(10.0), msToTicks(100.0)));
    // Within the safety margin: recompute wins the tie.
    EXPECT_FALSE(tier.streamWins(msToTicks(95.0), msToTicks(100.0)));
    // A failed device never streams, however good the estimate.
    tb.server().topology().markSsdFailed(true);
    EXPECT_FALSE(tier.streamWins(msToTicks(1.0), msToTicks(100.0)));
}

//
// TransferPlan on the SSD route: windowed SSD→DRAM→HBM streaming
// (suite name kept from the streamer it replaced).
//

TEST(PrefetchPipeline, StreamDeliversAllBytesWithOverlap)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    TransferPlan plan(tb.sim());
    auto ssd = TransferPlan::ssdRoute(tb.server(), 0);
    TransferPlan::Done done;
    bool fired = false;
    plan.start(ssd, 256 * mib, 0, [&](const TransferPlan::Done &d) {
        done = d;
        fired = true;
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_FALSE(done.cancelled);
    EXPECT_EQ(done.bytes, 256 * mib);
    EXPECT_GT(done.complete, done.start);
    // Double buffering must hide at least half of the shorter stage
    // (the acceptance bar the bench enforces end to end).
    EXPECT_GE(done.overlapEfficiency, 0.5);
    EXPECT_EQ(plan.stats().streamsCompleted, 1u);
    EXPECT_EQ(plan.stats().bytesStreamed, 256 * mib);
}

TEST(PrefetchPipeline, DoubleBufferingBeatsSingleBuffer)
{
    auto makespan = [](std::uint32_t buffers) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        TransferPlan plan(tb.sim(), buffers);
        auto ssd = TransferPlan::ssdRoute(tb.server(), 0);
        Tick complete = 0;
        plan.start(ssd, 256 * mib, 0,
                   [&](const TransferPlan::Done &d) {
                       complete = d.complete;
                   });
        tb.sim().runUntil(secToTicks(10.0));
        return complete;
    };
    Tick pipelined = makespan(2);
    Tick serial = makespan(1);
    ASSERT_GT(pipelined, Tick(0));
    ASSERT_GT(serial, Tick(0));
    EXPECT_LT(pipelined, serial);
}

TEST(PrefetchPipeline, EstimateTracksMakespanAndDegradation)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    TransferPlan plan(tb.sim());
    auto ssd = TransferPlan::ssdRoute(tb.server(), 0);
    Tick estimate = plan.estimate(ssd, 256 * mib);
    Tick complete = 0;
    plan.start(ssd, 256 * mib, 0, [&](const TransferPlan::Done &d) {
        complete = d.complete;
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_GT(complete, Tick(0));
    // The pure estimate is what the crossover check trusts: it must
    // track the idle-pipeline makespan closely.
    double actual = static_cast<double>(complete);
    EXPECT_NEAR(static_cast<double>(estimate), actual, 0.25 * actual);
    // Media degradation inflates the estimate (this is what flips
    // SsdTier's crossover to recompute during an incident).
    tb.server().topology().degradeSsd(0.1);
    EXPECT_GT(plan.estimate(ssd, 256 * mib), 2 * estimate);
}

TEST(PrefetchPipeline, CancellationStopsFutureWindows)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    TransferPlan plan(tb.sim());
    auto ssd = TransferPlan::ssdRoute(tb.server(), 0);
    TransferPlan::Done done;
    bool fired = false;
    auto id = plan.start(ssd, 512 * mib, 0,
                         [&](const TransferPlan::Done &d) {
                             done = d;
                             fired = true;
                         });
    EXPECT_TRUE(plan.active(id));
    // Predictor miss shortly after the stream starts.
    tb.sim().queue().schedule(msToTicks(5.0),
                              [&] { EXPECT_TRUE(plan.cancel(id)); });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_TRUE(done.cancelled);
    EXPECT_LT(done.bytes, 512 * mib);
    EXPECT_FALSE(plan.active(id));
    // A wound-down stream cannot be cancelled again.
    EXPECT_FALSE(plan.cancel(id));
    const PrefetchStats &s = plan.stats();
    EXPECT_EQ(s.streamsCancelled, 1u);
    EXPECT_GT(s.windowsCancelled, 0u);
    // In-flight windows at cancel time are charged as waste.
    EXPECT_EQ(s.bytesWasted, done.bytes);
    EXPECT_EQ(s.bytesStreamed, 0u);
}

TEST(PrefetchPipeline, SlotsReusedCleanlyAfterCancelledStream)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    TransferPlan plan(tb.sim());
    auto ssd = TransferPlan::ssdRoute(tb.server(), 0);
    auto first = plan.start(ssd, 512 * mib, 0);
    TransferPlan::Done done;
    bool fired = false;
    // Cancel the first stream mid-flight and immediately start a
    // second one: its windows queue on the media and PCIe behind the
    // first stream's in-flight windows, with bounce buffers of its
    // own.
    tb.sim().queue().schedule(msToTicks(5.0), [&] {
        plan.cancel(first);
        plan.start(ssd, 128 * mib, tb.sim().now(),
                   [&](const TransferPlan::Done &d) {
                       done = d;
                       fired = true;
                   });
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_FALSE(done.cancelled);
    EXPECT_EQ(done.bytes, 128 * mib);
    EXPECT_GE(done.overlapEfficiency, 0.0);
    EXPECT_EQ(plan.stats().streamsCompleted, 1u);
    EXPECT_EQ(plan.stats().streamsCancelled, 1u);
    EXPECT_EQ(plan.stats().bytesStreamed, 128 * mib);
}

TEST(PrefetchPipeline, MediaFailureMidStreamWindsDownCancelled)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    TransferPlan plan(tb.sim());
    auto ssd = TransferPlan::ssdRoute(tb.server(), 0);
    TransferPlan::Done done;
    bool fired = false;
    plan.start(ssd, 512 * mib, 0, [&](const TransferPlan::Done &d) {
        done = d;
        fired = true;
    });
    tb.sim().queue().schedule(msToTicks(5.0), [&] {
        tb.server().topology().markSsdFailed(true);
    });
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_TRUE(fired);
    EXPECT_TRUE(done.cancelled);
    EXPECT_LT(done.bytes, 512 * mib);
}

//
// SsdTier's park/resume/demote lifecycle (suite name kept, as above).
//

TEST(ParkAgent, ParkGatesOnIdleGapAndDriveHealth)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    // Too-short gaps are not worth the media churn.
    EXPECT_FALSE(tier.park(7, 64 * mib, 500, fp16, 5.0, 0));
    EXPECT_FALSE(tier.park(7, 0, 500, fp16, 60.0, 0));
    // A failed drive takes no new sessions.
    tb.server().topology().markSsdFailed(true);
    EXPECT_FALSE(tier.park(7, 64 * mib, 500, fp16, 60.0, 0));
    tb.server().topology().markSsdFailed(false);

    EXPECT_TRUE(tier.park(7, 64 * mib, 500, fp16, 60.0, 0));
    EXPECT_EQ(tier.parkedCount(), 1u);
    EXPECT_EQ(tier.parkedBytes(), 64 * mib);
    ASSERT_NE(tier.parked(7), nullptr);
    EXPECT_EQ(tier.parked(7)->tokens, 500u);
    EXPECT_EQ(tier.parked(8), nullptr);
    EXPECT_GT(tb.server().ssd().bytesWritten(), 0u);
    // A fresher turn supersedes the earlier copy, not leaks beside it.
    EXPECT_TRUE(tier.park(7, 32 * mib, 300, fp16, 60.0, 0));
    EXPECT_EQ(tier.parkedCount(), 1u);
    EXPECT_EQ(tier.parkedBytes(), 32 * mib);
}

TEST(ParkAgent, ResumeStreamsAndReleasesTheParkedCopy)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    std::uint64_t freeBefore = tb.server().ssd().freeBytes();
    ASSERT_TRUE(tier.park(7, 64 * mib, 500, fp16, 60.0, 0));

    bool fired = false, streamed = false;
    // Prefill would take far longer than the stream: must stream.
    ASSERT_TRUE(tier.beginResume(7, 0, secToTicks(5.0),
                                  [&](bool s) {
                                      fired = true;
                                      streamed = s;
                                  }));
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_TRUE(fired);
    EXPECT_TRUE(streamed);
    EXPECT_EQ(tier.parkedCount(), 0u);
    EXPECT_EQ(tb.server().ssd().freeBytes(), freeBefore);
    EXPECT_GT(tb.server().ssd().bytesRead(), 0u);
}

TEST(ParkAgent, DegradedDriveFlipsResumeToRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    ASSERT_TRUE(tier.park(7, 64 * mib, 500, fp16, 60.0, 0));
    tb.server().topology().degradeSsd(0.001);
    // Streaming off a crawling drive loses to a 50 ms prefill; the
    // tier drops the parked copy and reports recompute.
    EXPECT_FALSE(tier.beginResume(7, 0, msToTicks(50.0), {}));
    EXPECT_EQ(tier.parkedCount(), 0u);
    EXPECT_EQ(tier.parked(7), nullptr);
}

TEST(ParkAgent, CancelMidStreamDropsTheSession)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    std::uint64_t freeBefore = tb.server().ssd().freeBytes();
    ASSERT_TRUE(tier.park(7, 256 * mib, 2000, fp16, 60.0, 0));
    bool fired = false, streamed = true;
    ASSERT_TRUE(tier.beginResume(7, 0, secToTicks(5.0),
                                  [&](bool s) {
                                      fired = true;
                                      streamed = s;
                                  }));
    // The resumed sequence sheds before the stream lands.
    tb.sim().queue().schedule(msToTicks(2.0),
                              [&] { tier.cancelResume(7); });
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_TRUE(fired);
    EXPECT_FALSE(streamed);
    EXPECT_EQ(tier.parkedCount(), 0u);
    EXPECT_EQ(tb.server().ssd().freeBytes(), freeBefore);
}

TEST(ParkAgent, DemoteMovesDramHandleOntoTheMedia)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    serve::DramBackend &dram = tb.makeDramBackend(0);
    std::uint64_t dramFree = tb.server().dram().freeBytes();
    auto handle = dram.alloc(64 * mib);
    ASSERT_TRUE(handle);
    tier.noteOffloaded(42, 0);

    // Cold long enough: the settle pass picks it.
    auto picks = tier.selectDemotions(secToTicks(60.0), false);
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], 42u);

    auto moved =
        tier.demote(42, dram, *handle, 4, secToTicks(60.0));
    ASSERT_TRUE(moved);
    EXPECT_EQ(moved->bytes, 64 * mib);
    // The DRAM copy is gone; the bytes sit on the media now.
    EXPECT_EQ(tb.server().dram().freeBytes(), dramFree);
    EXPECT_EQ(tb.server().ssd().bytesWritten(), 64 * mib);
    // The demoted tail left the demotion table.
    EXPECT_EQ(tier.trackedCount(), 0u);
    tier.backend().free(*moved);
}

TEST(ParkAgent, DemoteRefusedOnFailedDrive)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    SsdTier tier(tb.server(), 0);
    serve::DramBackend &dram = tb.makeDramBackend(0);
    auto handle = dram.alloc(64 * mib);
    ASSERT_TRUE(handle);
    tier.noteOffloaded(42, 0);
    tb.server().topology().markSsdFailed(true);
    EXPECT_FALSE(tier.demote(42, dram, *handle, 4, secToTicks(60.0)));
    // The DRAM copy is untouched and still tracked.
    EXPECT_EQ(tier.trackedCount(), 1u);
    EXPECT_EQ(tier.selectDemotions(secToTicks(60.0), false).size(), 1u);
    dram.free(*handle);
}
