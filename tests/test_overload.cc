/**
 * @file
 * Tests for overload control: deadline-aware admission, the brownout
 * hysteresis ladder, and the end-to-end shed/degrade behaviour of the
 * controlled serving stack (src/overload, exp::runOverload).
 */

#include <gtest/gtest.h>

#include "exp/experiments.hh"
#include "overload/admission.hh"
#include "overload/brownout.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::overload;
using namespace aqua::sim;

namespace {

/** Rates chosen for easy arithmetic: 1 ms per prefill token, 10 ms
 *  per decode iteration. */
ServiceRates
easyRates()
{
    ServiceRates r;
    r.prefillPerToken = msToTicks(1.0);
    r.decodePerToken = msToTicks(10.0);
    return r;
}

AdmissionQuery
query(Tick now, Tick deadline, std::uint32_t prompt,
      std::uint32_t remaining, std::uint64_t ahead = 0,
      std::size_t running = 0, std::size_t maxBatch = 8)
{
    AdmissionQuery q;
    q.now = now;
    q.deadline = deadline;
    q.promptTokens = prompt;
    q.remainingNewTokens = remaining;
    q.queuedPrefillTokensAhead = ahead;
    q.runningCount = running;
    q.maxBatch = maxBatch;
    return q;
}

BrownoutSignals
signals(double tSec, std::size_t depth, double delaySec,
        double freeFrac = 1.0, bool reclaim = false,
        double linkHealth = 1.0)
{
    BrownoutSignals s;
    s.now = secToTicks(tSec);
    s.queueDepth = depth;
    s.queueDelaySec = delaySec;
    s.freePoolFraction = freeFrac;
    s.reclaimPressure = reclaim;
    s.linkHealth = linkHealth;
    return s;
}

} // anonymous namespace

//
// AdmissionController.
//

TEST(Admission, PredictsQueueThenPrefillThenSharedDecode)
{
    AdmissionController ctl(easyRates());
    // 500 queued prefill tokens ahead + own 100-token prompt, then 50
    // decode iterations sharing an 8-slot batch with 7 residents: the
    // batch-share factor is (7 + 1) / 8 = 1.
    AdmissionQuery q = query(secToTicks(1.0), 0, 100, 50, 500, 7, 8);
    Tick expected = secToTicks(1.0) + msToTicks(600.0) +
                    msToTicks(50 * 10.0);
    EXPECT_EQ(ctl.predictCompletion(q), expected);
}

TEST(Admission, DecodeStretchesWithOversubscribedBatch)
{
    AdmissionController ctl(easyRates());
    // 15 residents in an 8-slot batch: each decode iteration costs
    // (15 + 1) / 8 = 2x the nominal per-token time.
    AdmissionQuery q = query(0, 0, 0, 10, 0, 15, 8);
    EXPECT_EQ(ctl.predictCompletion(q), msToTicks(10 * 10.0 * 2.0));
}

TEST(Admission, SafetyFactorShedsEarlier)
{
    AdmissionConfig cfg;
    cfg.safetyFactor = 2.0;
    AdmissionController ctl(easyRates(), cfg);
    // Service takes 100 ms; the deadline allows 150 ms. Admissible
    // with factor 1, shed at factor 2 (prediction 200 ms).
    AdmissionQuery q = query(0, msToTicks(150.0), 0, 10, 0, 0, 8);
    EXPECT_EQ(ctl.assess(q, BrownoutLevel::Normal),
              ShedReason::DeadlineUnmeetable);
    AdmissionController lax(easyRates());
    EXPECT_EQ(lax.assess(q, BrownoutLevel::Normal), ShedReason::None);
}

TEST(Admission, NoDeadlineNeverDeadlineShed)
{
    AdmissionController ctl(easyRates());
    AdmissionQuery q = query(0, 0, 1000, 1000, 100000, 50, 8);
    EXPECT_EQ(ctl.assess(q, BrownoutLevel::Normal), ShedReason::None);
}

TEST(Admission, BrownoutShedsBestEffortFirst)
{
    AdmissionController ctl(easyRates());
    AdmissionQuery q = query(0, 0, 10, 10);
    q.bestEffort = true;
    EXPECT_EQ(ctl.assess(q, BrownoutLevel::Normal), ShedReason::None);
    EXPECT_EQ(ctl.assess(q, BrownoutLevel::ShedBestEffort),
              ShedReason::BrownoutBestEffort);
    // A deadline-bearing request rides through every level below
    // RejectNew...
    AdmissionQuery slo = query(0, secToTicks(100.0), 10, 10);
    EXPECT_EQ(ctl.assess(slo, BrownoutLevel::ForceDramOffload),
              ShedReason::None);
    // ...and is refused, like everything else, at RejectNew.
    EXPECT_EQ(ctl.assess(slo, BrownoutLevel::RejectNew),
              ShedReason::BrownoutReject);
}

TEST(Admission, CountersAndAttainment)
{
    AdmissionController ctl(easyRates());
    ctl.recordShed(ShedReason::DeadlineUnmeetable);
    ctl.recordShed(ShedReason::BrownoutBestEffort);
    ctl.recordShed(ShedReason::BrownoutReject);
    ctl.recordAdmit();
    EXPECT_EQ(ctl.stats().totalShed(), 3u);
    EXPECT_EQ(ctl.stats().shedDeadline, 1u);
    EXPECT_EQ(ctl.stats().admitted, 1u);

    ctl.recordCompletion(secToTicks(1.0), secToTicks(2.0)); // met
    ctl.recordCompletion(secToTicks(3.0), secToTicks(2.0)); // missed
    ctl.recordCompletion(secToTicks(9.0), 0);               // no SLO
    EXPECT_EQ(ctl.stats().deadlineMet, 2u);
    EXPECT_EQ(ctl.stats().deadlineMissed, 1u);
    EXPECT_NEAR(ctl.attainment(), 2.0 / 3.0, 1e-9);
}

//
// BrownoutController.
//

TEST(Brownout, FullPoolAloneIsNotOverload)
{
    // A busy offloaded engine runs its pool full in steady state; a
    // low free fraction with a calm queue must not trip the ladder.
    BrownoutController ctl;
    EXPECT_EQ(ctl.update(signals(1.0, 0, 0.0, 0.0)),
              BrownoutLevel::Normal);
    EXPECT_EQ(ctl.update(signals(2.0, 0, 0.0, 0.0, true, 0.1)),
              BrownoutLevel::Normal);
}

TEST(Brownout, QueuePressureEscalatesImmediately)
{
    BrownoutController ctl;
    BrownoutConfig cfg = ctl.config();
    EXPECT_EQ(ctl.update(signals(1.0, cfg.queueHigh, 0.0)),
              BrownoutLevel::ShedBestEffort);
    // Delay alone (queue shallow but the oldest waiter is stale)
    // counts as queue pressure too.
    BrownoutController byDelay;
    EXPECT_EQ(byDelay.update(signals(1.0, 0, cfg.delayHighSec)),
              BrownoutLevel::ShedBestEffort);
}

TEST(Brownout, MemoryAndPathPressureDeepenAnActiveBrownout)
{
    BrownoutConfig cfg;
    BrownoutController mem(cfg);
    EXPECT_EQ(mem.update(signals(1.0, cfg.queueHigh, 0.0, 0.05)),
              BrownoutLevel::NoCachePublish);
    BrownoutController path(cfg);
    EXPECT_EQ(path.update(
                  signals(1.0, cfg.queueHigh, 0.0, 1.0, true)),
              BrownoutLevel::ForceDramOffload);
    BrownoutController link(cfg);
    EXPECT_EQ(link.update(signals(1.0, cfg.queueHigh, 0.0, 1.0,
                                  false, 0.5)),
              BrownoutLevel::ForceDramOffload);
}

TEST(Brownout, RejectNewNeedsCompoundPressure)
{
    BrownoutConfig cfg;
    // Deep queue alone: not enough.
    BrownoutController deep(cfg);
    EXPECT_LT(deep.update(signals(1.0, 2 * cfg.queueHigh, 0.0)),
              BrownoutLevel::RejectNew);
    // Deep queue + memory pressure: reject.
    BrownoutController a(cfg);
    EXPECT_EQ(a.update(signals(1.0, 2 * cfg.queueHigh, 0.0, 0.05)),
              BrownoutLevel::RejectNew);
    // Deep *stale* queue (2x the delay high-water) without memory
    // pressure: reject.
    BrownoutController b(cfg);
    EXPECT_EQ(b.update(signals(1.0, 2 * cfg.queueHigh,
                               2 * cfg.delayHighSec)),
              BrownoutLevel::RejectNew);
    // Memory + path pressure under ordinary queue pressure: reject.
    BrownoutController c(cfg);
    EXPECT_EQ(c.update(signals(1.0, cfg.queueHigh, 0.0, 0.05, true)),
              BrownoutLevel::RejectNew);
}

TEST(Brownout, StepsDownOneRungAfterDwell)
{
    BrownoutConfig cfg;
    cfg.minDwell = msToTicks(100.0);
    BrownoutController ctl(cfg);
    ctl.update(signals(1.0, 2 * cfg.queueHigh, 0.0, 0.05)); // Reject
    ASSERT_EQ(ctl.level(), BrownoutLevel::RejectNew);

    // Calm signals inside the dwell: no change.
    EXPECT_EQ(ctl.update(signals(1.05, 0, 0.0)),
              BrownoutLevel::RejectNew);
    // Past the dwell: one rung per dwell period, not a free fall.
    EXPECT_EQ(ctl.update(signals(1.2, 0, 0.0)),
              BrownoutLevel::ForceDramOffload);
    EXPECT_EQ(ctl.update(signals(1.25, 0, 0.0)),
              BrownoutLevel::ForceDramOffload);
    EXPECT_EQ(ctl.update(signals(1.4, 0, 0.0)),
              BrownoutLevel::NoCachePublish);
    EXPECT_EQ(ctl.update(signals(1.6, 0, 0.0)),
              BrownoutLevel::ShedBestEffort);
    EXPECT_EQ(ctl.update(signals(1.8, 0, 0.0)),
              BrownoutLevel::Normal);
    EXPECT_EQ(ctl.stats().transitions, 5u);
    EXPECT_EQ(ctl.stats().escalations, 1u);
}

TEST(Brownout, NoStepDownAboveLowWaterMarks)
{
    // Queue between low and high water: neither escalate nor relax —
    // this is the hysteresis band that prevents flapping.
    BrownoutConfig cfg;
    cfg.minDwell = msToTicks(100.0);
    BrownoutController ctl(cfg);
    ctl.update(signals(1.0, cfg.queueHigh, 0.0));
    ASSERT_EQ(ctl.level(), BrownoutLevel::ShedBestEffort);
    EXPECT_EQ(ctl.update(signals(2.0, cfg.queueLow + 1, 0.0)),
              BrownoutLevel::ShedBestEffort);
    EXPECT_EQ(ctl.update(signals(3.0, cfg.queueLow, 0.0)),
              BrownoutLevel::Normal);
}

TEST(Brownout, BreakerHeldOpenWhilePathPressured)
{
    // At ForceDramOffload the circuit must stay open while the donor
    // is still reclaiming, even with the queue fully drained —
    // swapping back onto a mid-reclaim path would re-stall the engine.
    BrownoutConfig cfg;
    cfg.minDwell = msToTicks(100.0);
    BrownoutController ctl(cfg);
    ctl.update(signals(1.0, cfg.queueHigh, 0.0, 1.0, true));
    ASSERT_EQ(ctl.level(), BrownoutLevel::ForceDramOffload);
    EXPECT_EQ(ctl.update(signals(2.0, 0, 0.0, 1.0, true)),
              BrownoutLevel::ForceDramOffload);
    EXPECT_EQ(ctl.update(signals(3.0, 0, 0.0, 1.0, false, 0.5)),
              BrownoutLevel::ForceDramOffload);
    // Path pressure gone: normal one-rung descent resumes.
    EXPECT_EQ(ctl.update(signals(4.0, 0, 0.0)),
              BrownoutLevel::NoCachePublish);

    // From RejectNew the pressured path holds only the breaker's rung:
    // the ladder steps down to ForceDramOffload and stays there, so
    // arrivals are admitted again while swaps keep diverting.
    BrownoutController top(cfg);
    top.update(signals(1.0, cfg.queueHigh, 0.0, 0.05, true));
    ASSERT_EQ(top.level(), BrownoutLevel::RejectNew);
    EXPECT_EQ(top.update(signals(2.0, 0, 0.0, 1.0, true)),
              BrownoutLevel::ForceDramOffload);
    EXPECT_EQ(top.update(signals(3.0, 0, 0.0, 1.0, false, 0.5)),
              BrownoutLevel::ForceDramOffload);
}

TEST(Brownout, SliceFactorHalvesPerLevel)
{
    BrownoutConfig cfg;
    BrownoutController ctl(cfg);
    EXPECT_DOUBLE_EQ(ctl.sliceFactor(), 1.0);
    ctl.update(signals(1.0, cfg.queueHigh, 0.0, 0.05, true));
    ASSERT_EQ(ctl.level(), BrownoutLevel::RejectNew);
    EXPECT_DOUBLE_EQ(ctl.sliceFactor(), 0.5 * 0.5 * 0.5 * 0.5);
}

TEST(Brownout, TimeAtLevelIncludesOpenInterval)
{
    BrownoutConfig cfg;
    cfg.minDwell = msToTicks(100.0);
    BrownoutController ctl(cfg);
    ctl.update(signals(1.0, cfg.queueHigh, 0.0));
    ctl.update(signals(3.0, 0, 0.0)); // back to Normal at t=3
    EXPECT_EQ(ctl.timeAtLevel(BrownoutLevel::ShedBestEffort,
                              secToTicks(10.0)),
              secToTicks(2.0));
    EXPECT_EQ(ctl.timeAtLevel(BrownoutLevel::Normal, secToTicks(10.0)),
              secToTicks(8.0));
}

TEST(Brownout, TransitionsAreTraced)
{
    trace::TraceLog log;
    BrownoutConfig cfg;
    cfg.minDwell = msToTicks(100.0);
    BrownoutController ctl(cfg);
    ctl.setTraceLog(&log);
    ctl.update(signals(1.0, cfg.queueHigh, 0.0));
    ctl.update(signals(2.0, 0, 0.0));
    EXPECT_EQ(log.countCategory("brownout_level"), 2u);
}

//
// End-to-end: the controlled stack under the overload harness.
//

namespace {

exp::OverloadRunConfig
tinyOverload(double load, bool controlled)
{
    exp::OverloadRunConfig cfg;
    cfg.numRequests = 80;
    cfg.loadMultiplier = load;
    cfg.controlled = controlled;
    cfg.maxSimSeconds = 1500.0;
    return cfg;
}

} // anonymous namespace

TEST(OverloadRun, BaselineNeverShedsOrBrownsOut)
{
    exp::OverloadRunResult r = exp::runOverload(tinyOverload(4.0, false));
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.brownout.transitions, 0u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.prefix.sigMismatches, 0u);
}

TEST(OverloadRun, ControlledShedsAndTracesUnderOverload)
{
    trace::TraceLog log;
    exp::OverloadRunConfig cfg = tinyOverload(4.0, true);
    cfg.traceLog = &log;
    exp::OverloadRunResult r = exp::runOverload(cfg);
    EXPECT_GT(r.shed, 0u);
    EXPECT_GT(r.brownout.transitions, 0u);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_EQ(r.prefix.sigMismatches, 0u);
    // Every shed and every ladder transition is observable.
    EXPECT_EQ(log.countCategory("shed"), r.shed);
    EXPECT_EQ(log.countCategory("brownout_level"),
              r.brownout.transitions);
    // Shed + served + unfinished accounts for every request.
    EXPECT_EQ(r.shed + r.deadlineMet + r.deadlineMissed,
              r.metrics.size());
}

TEST(OverloadRun, ControlledBeatsBaselineGoodputAtHighLoad)
{
    exp::OverloadRunResult ctl = exp::runOverload(tinyOverload(4.0, true));
    exp::OverloadRunResult raw =
        exp::runOverload(tinyOverload(4.0, false));
    EXPECT_GT(ctl.goodputPerSec, raw.goodputPerSec);
    EXPECT_GT(ctl.attainment, raw.attainment);
}

TEST(OverloadRun, NominalLoadBarelyDegrades)
{
    exp::OverloadRunResult r = exp::runOverload(tinyOverload(1.0, true));
    // At x1 the controlled stack should serve (nearly) everything.
    EXPECT_LE(r.shed, r.metrics.size() / 10);
    EXPECT_EQ(r.unfinished, 0u);
    EXPECT_GT(r.attainment, 0.9);
}
