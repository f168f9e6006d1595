/**
 * @file
 * Golden runs of the serving engine's swap path: everything a
 * sequence's KV does while it is out of HBM. Each test drives one
 * engine through a branch no bench output reaches and pins its exact
 * counters, offload byte totals and a digest of the finished requests'
 * metrics, so a refactor of the path must reproduce them byte for
 * byte:
 *
 *  - shared-prefix groups under CFS pool pressure: a group write, a
 *    group join, resident reuse and a group read after eviction;
 *  - the brownout circuit breaker diverting swaps to a small fallback
 *    backend, and failing back to the primary once it is full;
 *  - private tails quantized by the cold-precision governor;
 *  - DRAM tails demoted to the SSD and swapped back in, with and
 *    without at-rest bitrot (a rotted tail requeues for recompute);
 *  - a parked session stored below the serving precision, resumed;
 *  - deadline admission alone under CFS, shedding requests whose
 *    deadlines the queue has already eaten;
 *  - admission, the brownout ladder and the precision governor
 *    together under FCFS, with a fallback backend for the breaker.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "exp/testbed.hh"
#include "serve/ssd_tier.hh"
#include "serve/vllm_engine.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

workload::Request
makeRequest(std::uint64_t id, Tick arrival, std::uint32_t prompt,
            std::uint32_t out)
{
    workload::Request r;
    r.id = id;
    r.arrival = arrival;
    r.promptTokens = prompt;
    r.maxNewTokens = out;
    return r;
}

/** FNV-1a over every finished request's metrics, completion order. */
std::uint64_t
metricsDigest(const VllmEngine &e)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    for (const workload::RequestMetrics &m : e.finished()) {
        mix(m.id);
        mix(m.arrival);
        mix(m.firstToken);
        mix(m.finish);
        mix(m.tokensGenerated);
        mix(m.deadline);
        mix(m.admitted);
        mix(m.shed);
    }
    return h;
}

/** Every swap-path counter the engine exposes, on one line. */
std::string
snapshot(const VllmEngine &e)
{
    const PrefixCacheEngineStats &p = e.prefixEngineStats();
    const IntegrityEngineStats &in = e.integrityStats();
    std::ostringstream os;
    os << "finished=" << e.finished().size()
       << " out=" << e.swapOutCount() << " in=" << e.swapInCount()
       << " recompute=" << e.recomputeCount()
       << " fallback=" << e.fallbackSwapCount()
       << " demoted=" << e.tierDemotionCount()
       << " parks=" << e.parkCount()
       << " streamResumes=" << e.streamResumeCount()
       << " recomputeResumes=" << e.recomputeResumeCount()
       << " wr=" << e.offloadWriteBytes() << " rd=" << e.offloadReadBytes()
       << " groupWrites=" << p.groupWrites
       << " sharedOuts=" << p.sharedSwapOuts
       << " dedup=" << p.dedupSavedBytes
       << " reuse=" << p.residentReuseBytes
       << " sigMiss=" << p.sigMismatches << " detected=" << in.detected
       << " repaired=" << in.repairedRetransmit
       << " rotted=" << in.recomputeFallbacks;
    if (const auto *g = e.overloadControls().precisionGovernor()) {
        os << " quantized=" << g->stats().demotedPayloads
           << " quantSaved=" << g->stats().savedBytes;
    }
    os << " digest=" << std::hex << metricsDigest(e);
    return os.str();
}

/** Overload-control counters: sheds by reason, deadline outcomes and
 *  brownout transitions. */
std::string
overloadSnapshot(const VllmEngine &e)
{
    std::ostringstream os;
    const overload::Controls &ctl = e.overloadControls();
    os << "shed=" << ctl.shedCount();
    if (const auto *a = ctl.admissionController()) {
        const overload::AdmissionStats &st = a->stats();
        os << " admitted=" << st.admitted
           << " shedDeadline=" << st.shedDeadline
           << " shedBestEffort=" << st.shedBestEffort
           << " shedReject=" << st.shedReject
           << " met=" << st.deadlineMet << " missed=" << st.deadlineMissed;
    }
    if (const auto *b = ctl.brownoutController()) {
        os << " transitions=" << b->stats().transitions
           << " escalations=" << b->stats().escalations;
    }
    return os.str();
}

/** @p n requests every 0.5 s, every third one best-effort and the
 *  rest due @p slackSec to 9 s more after their arrival. */
void
submitDeadlineTraffic(VllmEngine &e, int n, double slackSec)
{
    for (int i = 0; i < n; ++i) {
        workload::Request r =
            makeRequest(i + 1, secToTicks(0.5 * i), 600 + 40 * (i % 5),
                        200);
        if (i % 3 == 2)
            r.bestEffort = true;
        else
            r.deadline = r.arrival + secToTicks(slackSec + 3.0 * (i % 4));
        e.submit(r);
    }
}

/** An offload backend that refuses allocations past a byte cap. */
class CappedBackend : public OffloadBackend
{
  public:
    CappedBackend(OffloadBackend &inner, std::uint64_t cap)
        : inner(inner), cap(cap)
    {
    }

    std::optional<Handle>
    alloc(std::uint64_t bytes) override
    {
        if (used + bytes > cap)
            return std::nullopt;
        auto h = inner.alloc(bytes);
        if (h)
            used += bytes;
        return h;
    }
    void
    free(const Handle &h) override
    {
        used -= h.bytes;
        inner.free(h);
    }
    hw::TransferTiming
    write(const Handle &h, std::uint64_t bytes, std::uint64_t nChunks,
          Tick earliest) override
    {
        return inner.write(h, bytes, nChunks, earliest);
    }
    hw::TransferTiming
    read(const Handle &h, std::uint64_t bytes, std::uint64_t nChunks,
         Tick earliest) override
    {
        return inner.read(h, bytes, nChunks, earliest);
    }
    Tick respond() override { return inner.respond(); }
    bool staged() const override { return inner.staged(); }
    std::string name() const override { return inner.name(); }

    std::uint64_t usedBytes() const { return used; }

  private:
    OffloadBackend &inner;
    std::uint64_t cap;
    std::uint64_t used = 0;
};

/** A 1 GiB pool: a handful of 2k-token codellama-34b contexts. */
constexpr std::uint64_t smallPool = std::uint64_t(1) << 30;

} // anonymous namespace

TEST(SwapGolden, SharedPrefixGroupsUnderPoolPressure)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.kvPoolBytesOverride = smallPool;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    // Two long requests publish a shared 1024-token preamble. Six
    // more, whose whole prompt is that preamble, arrive once it is
    // cached and admit from it; CFS preempts them before they fill a
    // block of their own, so each swaps out the same shared lead and
    // all but the first to go join its group. The long requests keep
    // the pool under pressure, so cached preamble blocks are evicted
    // while their borrowers are swapped out.
    for (int i = 0; i < 8; ++i) {
        workload::Request r = i < 2
                                  ? makeRequest(i, 0, 2000, 300)
                                  : makeRequest(i, secToTicks(5.0), 1024,
                                                300);
        r.prefixStream = workload::contentStreamId(0x5157);
        r.prefixTokens = 1024;
        engine.submit(r);
    }
    tb.sim().runUntil(secToTicks(900.0));

    const PrefixCacheEngineStats &p = engine.prefixEngineStats();
    EXPECT_GT(p.groupWrites, 0u);
    EXPECT_GT(p.sharedSwapOuts, 0u);
    EXPECT_GT(p.dedupSavedBytes, 0u);
    EXPECT_GT(p.residentReuseBytes, 0u);
    EXPECT_EQ(p.sigMismatches, 0u);
    EXPECT_EQ(engine.kvCache().liveKvBytes(), 0u);
    EXPECT_EQ(snapshot(engine),
              "finished=8 out=316 in=316 recompute=0 fallback=0 "
              "demoted=0 parks=0 streamResumes=0 recomputeResumes=0 "
              "wr=46198358016 rd=27764391936 groupWrites=44 "
              "sharedOuts=229 dedup=45383417856 reuse=63817383936 "
              "sigMiss=0 detected=0 repaired=0 rotted=0 "
              "digest=4edc1733818aa771");
}

TEST(SwapGolden, BreakerDivertsToSmallFallbackThenFailsBack)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &primary = tb.makeDramBackend(0);
    auto &dram = tb.makeDramBackend(0);
    // Room for about two swapped contexts.
    CappedBackend fallback(dram, std::uint64_t(900) << 20);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = smallPool;
    overload::BrownoutConfig bc;
    // Swapped sequences count as queued work: two of them put the
    // queue under pressure, and the degraded peer link below opens
    // the breaker. Memory pressure never counts, so the ladder stops
    // at ForceDramOffload instead of refusing arrivals.
    bc.queueHigh = 2;
    bc.queueLow = 1;
    bc.freeLow = -1.0;
    cfg.overload.brownout = bc;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), primary, cfg);
    engine.setFallbackBackend(&fallback);
    tb.server().topology().degradePeerLink(0.5);
    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i + 1, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));

    EXPECT_GT(engine.fallbackSwapCount(), 0u);
    EXPECT_LT(engine.fallbackSwapCount(), engine.swapOutCount());
    EXPECT_EQ(fallback.usedBytes(), 0u);
    EXPECT_EQ(snapshot(engine),
              "finished=8 out=810 in=810 recompute=0 fallback=664 "
              "demoted=0 parks=0 streamResumes=0 recomputeResumes=0 "
              "wr=153575620608 rd=153575620608 groupWrites=0 "
              "sharedOuts=0 dedup=0 reuse=0 sigMiss=0 detected=0 "
              "repaired=0 rotted=0 digest=d4c7f686cdc3d956");
}

TEST(SwapGolden, GovernorQuantizesPrivateTails)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = smallPool;
    cfg.overload.precisionGovernor =
        overload::KvPrecisionGovernorConfig{};
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i + 1, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));

    const auto *gov = engine.overloadControls().precisionGovernor();
    ASSERT_NE(gov, nullptr);
    EXPECT_GT(gov->stats().demotedPayloads, 0u);
    EXPECT_EQ(snapshot(engine),
              "finished=8 out=161 in=161 recompute=0 fallback=0 "
              "demoted=0 parks=0 streamResumes=0 recomputeResumes=0 "
              "wr=10438459392 rd=10438459392 groupWrites=0 sharedOuts=0 "
              "dedup=0 reuse=0 sigMiss=0 detected=0 repaired=0 rotted=0 "
              "quantized=161 quantSaved=20120518656 "
              "digest=44b0b231d65c4ebf");
}

namespace {

/** CFS over a small pool with aggressive tier aging: swapped tails
 *  demote to the SSD within the run and swap back in from there. */
std::string
demotedTailRun(double bitrot, std::uint64_t &ssdRead,
               std::size_t &tierItems)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    SsdTierConfig tc;
    tc.parkAfterSec = 0.5;
    tc.pressureParkAfterSec = 0.1;
    SsdTier agent(tb.server(), 0, tc);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = smallPool;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    engine.attachSsdTier(&agent);
    tb.server().topology().setSsdBitrot(bitrot);
    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i + 1, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));
    EXPECT_EQ(engine.finished().size(), 8u);
    ssdRead = tb.server().ssd().bytesRead();
    tierItems = agent.trackedCount();
    return snapshot(engine);
}

} // anonymous namespace

TEST(SwapGolden, DemotedTailsSwapBackInFromSsd)
{
    std::uint64_t ssdRead = 0;
    std::size_t items = 0;
    std::string got = demotedTailRun(0.0, ssdRead, items);
    EXPECT_GT(ssdRead, 0u);
    EXPECT_EQ(items, 0u);
    EXPECT_EQ(got,
              "finished=8 out=161 in=161 recompute=0 fallback=0 "
              "demoted=2 parks=0 streamResumes=0 recomputeResumes=0 "
              "wr=30558978048 rd=30558978048 groupWrites=0 sharedOuts=0 "
              "dedup=0 reuse=0 sigMiss=0 detected=0 repaired=0 rotted=0 "
              "digest=10111677ca58c67f");
}

TEST(SwapGolden, RottedDemotedTailRequeuesForRecompute)
{
    std::uint64_t ssdRead = 0;
    std::size_t items = 0;
    std::string got = demotedTailRun(0.5, ssdRead, items);
    EXPECT_EQ(items, 0u);
    EXPECT_EQ(got,
              "finished=8 out=236 in=235 recompute=1 fallback=0 "
              "demoted=2 parks=0 streamResumes=0 recomputeResumes=0 "
              "wr=44925124608 rd=44925124608 groupWrites=0 sharedOuts=0 "
              "dedup=0 reuse=0 sigMiss=0 detected=1 repaired=0 rotted=1 "
              "digest=2c07c8a624fb1756");
}

TEST(SwapGolden, QuantizedParkedSessionResumes)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    SsdTier agent(tb.server(), 0);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = smallPool;
    // Demote to int4 at any fill level, so the parked copy is stored
    // below the serving precision and pays a dequant on resume.
    overload::KvPrecisionGovernorConfig gc;
    gc.freeFp8 = 1.0;
    gc.freeInt4 = 1.0;
    cfg.overload.precisionGovernor = gc;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend, cfg);
    engine.attachSsdTier(&agent);
    for (std::uint32_t u = 0; u < 3; ++u) {
        workload::Request r = makeRequest(1 + u, 0, 400, 20);
        r.userId = 7 + u;
        r.idleGapSec = 60.0;
        engine.submit(r);
    }
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_EQ(engine.parkCount(), 3u);
    for (std::uint32_t u = 0; u < 3; ++u) {
        workload::Request r =
            makeRequest(10 + u, secToTicks(10.0), 600, 10);
        r.userId = 7 + u;
        r.turn = 1;
        r.coldResume = true;
        engine.submit(r);
    }
    tb.sim().runUntil(secToTicks(40.0));
    EXPECT_EQ(engine.finished().size(), 6u);
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(snapshot(engine),
              "finished=6 out=0 in=0 recompute=0 fallback=0 demoted=0 "
              "parks=3 streamResumes=3 recomputeResumes=0 wr=0 rd=0 "
              "groupWrites=0 sharedOuts=0 dedup=0 reuse=0 sigMiss=0 "
              "detected=0 repaired=0 rotted=0 quantized=3 "
              "quantSaved=185794560 digest=ab7f92769d8ec5b9");
}

TEST(SwapGolden, AdmissionShedsUnmeetableDeadlinesUnderCfs)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = smallPool;
    cfg.overload.admission = overload::AdmissionConfig{};
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    submitDeadlineTraffic(engine, 24, 5.0);
    tb.sim().runUntil(secToTicks(4000.0));

    EXPECT_EQ(engine.finished().size(), 24u);
    EXPECT_EQ(snapshot(engine),
              "finished=24 out=405 in=405 recompute=0 fallback=0 "
              "demoted=0 parks=0 streamResumes=0 recomputeResumes=0 "
              "wr=64662208512 rd=64662208512 groupWrites=0 sharedOuts=0 "
              "dedup=0 reuse=0 sigMiss=0 detected=0 repaired=0 rotted=0 "
              "digest=346d7bde4d07db5b");
    EXPECT_EQ(overloadSnapshot(engine),
              "shed=8 admitted=16 shedDeadline=8 shedBestEffort=0 "
              "shedReject=0 met=8 missed=8");
}

TEST(SwapGolden, AllControllersUnderFcfsWithFallback)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &primary = tb.makeDramBackend(0);
    auto &dram = tb.makeDramBackend(0);
    CappedBackend fallback(dram, std::uint64_t(900) << 20);
    VllmEngineConfig cfg;
    cfg.prefixCache = true;
    cfg.kvPoolBytesOverride = smallPool;
    cfg.overload.admission = overload::AdmissionConfig{};
    overload::BrownoutConfig bc;
    bc.queueHigh = 4;
    bc.queueLow = 2;
    bc.delayHighSec = 4.0;
    bc.freeLow = -1.0;
    cfg.overload.brownout = bc;
    cfg.overload.precisionGovernor =
        overload::KvPrecisionGovernorConfig{};
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), primary, cfg);
    engine.setFallbackBackend(&fallback);
    trace::TraceLog log;
    engine.setTraceLog(&log);
    // The peer link is degraded for the first 15 s: the breaker opens
    // under the early queue and may close once the link recovers.
    tb.server().topology().degradePeerLink(0.5);
    tb.sim().queue().schedule(secToTicks(15.0), [&tb] {
        tb.server().topology().degradePeerLink(1.0);
    });
    submitDeadlineTraffic(engine, 40, 14.0);
    tb.sim().runUntil(secToTicks(4000.0));

    EXPECT_EQ(engine.finished().size(), 40u);
    EXPECT_EQ(fallback.usedBytes(), 0u);
    EXPECT_EQ(snapshot(engine),
              "finished=40 out=2 in=2 recompute=0 fallback=2 demoted=0 "
              "parks=0 streamResumes=0 recomputeResumes=0 wr=78888960 "
              "rd=78888960 groupWrites=0 sharedOuts=0 dedup=0 reuse=0 "
              "sigMiss=0 detected=0 repaired=0 rotted=0 quantized=2 "
              "quantSaved=236666880 digest=818f994c166e5e17");
    EXPECT_EQ(overloadSnapshot(engine),
              "shed=23 admitted=17 shedDeadline=2 shedBestEffort=10 "
              "shedReject=11 met=14 missed=3 transitions=8 escalations=3");
    EXPECT_EQ(log.countCategory("shed"), 23u);
    EXPECT_EQ(log.countCategory("brownout_level"), 8u);
    EXPECT_EQ(log.countCategory("kv_precision"), 14u);
}
