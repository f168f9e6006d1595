/**
 * @file
 * End-to-end tests for the serving engine's SsdTier integration:
 * cold sessions park their KV on the SSD at finish, returning turns
 * resume by streaming it back (or recompute when the drive is slow or
 * dead), and swapped-out KV that goes cold in DRAM demotes onto the
 * media — the tier the ForceDramOffload brownout rung drains into —
 * and tearing it all down returns every byte to the drive.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/testbed.hh"
#include "serve/ssd_tier.hh"
#include "serve/vllm_engine.hh"
#include "workload/generator.hh"

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

/** First turn that goes cold afterwards, and its returning follow-up. */
workload::Request
coldFirstTurn(std::uint64_t id, std::uint32_t user)
{
    workload::Request r = makeRequest(id, 0, 400, 20);
    r.userId = user;
    r.turn = 0;
    r.idleGapSec = 60.0;
    return r;
}

workload::Request
returningTurn(std::uint64_t id, std::uint32_t user, Tick arrival)
{
    workload::Request r = makeRequest(id, arrival, 600, 10);
    r.userId = user;
    r.turn = 1;
    r.coldResume = true;
    return r;
}

} // anonymous namespace

TEST(TierEngine, ColdSessionParksAndStreamResumeBeatsReprefill)
{
    // Identical two-turn session with and without the tier attached;
    // only the returning turn's TTFT should differ.
    auto run = [](bool tiering, std::uint64_t &streams) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        auto &backend = tb.makeDramBackend(0);
        SsdTier agent(tb.server(), 0);
        VllmEngine engine(tb.server(), 0, model::codellama34b(),
                          std::make_unique<FcfsPolicy>(), backend);
        if (tiering)
            engine.attachSsdTier(&agent);

        engine.submit(coldFirstTurn(1, 7));
        tb.sim().runUntil(secToTicks(10.0));
        EXPECT_EQ(engine.finished().size(), 1u);
        EXPECT_EQ(engine.parkCount(), tiering ? 1u : 0u);
        EXPECT_EQ(agent.parkedCount(), tiering ? 1u : 0u);

        engine.submit(returningTurn(2, 7, secToTicks(10.0)));
        tb.sim().runUntil(secToTicks(30.0));
        EXPECT_EQ(engine.finished().size(), 2u);
        streams = engine.streamResumeCount();
        return engine.finished()[1].ttftSec();
    };

    std::uint64_t tierStreams = 0, baseStreams = 0;
    double tierTtft = run(true, tierStreams);
    double baseTtft = run(false, baseStreams);
    EXPECT_EQ(tierStreams, 1u);
    EXPECT_EQ(baseStreams, 0u);
    // The resume restored 420 of the 600 prompt tokens; only the new
    // tail re-prefills, so first-token latency drops.
    EXPECT_LT(tierTtft, baseTtft);
}

TEST(TierEngine, ResumedSessionReleasesAllTierState)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    SsdTier agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSsdTier(&agent);
    std::uint64_t ssdFree = tb.server().ssd().freeBytes();

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    EXPECT_LT(tb.server().ssd().freeBytes(), ssdFree);

    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    // The parked copy is freed once the stream lands; nothing leaks.
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(tb.server().ssd().freeBytes(), ssdFree);
    EXPECT_EQ(agent.trackedCount(), 0u);
}

TEST(TierEngine, DegradedDriveResumesViaRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    SsdTier agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSsdTier(&agent);

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(agent.parkedCount(), 1u);

    // GC storm before the user returns: the crossover check sees the
    // inflated stream estimate and chooses recompute.
    tb.server().topology().degradeSsd(0.001);
    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().runUntil(secToTicks(30.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.streamResumeCount(), 0u);
    EXPECT_EQ(engine.recomputeResumeCount(), 1u);
    EXPECT_EQ(agent.parkedCount(), 0u);
}

TEST(TierEngine, DriveFailureMidResumeFallsBackToRecompute)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    SsdTier agent(tb.server(), 0);
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<FcfsPolicy>(), backend);
    engine.attachSsdTier(&agent);

    engine.submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(agent.parkedCount(), 1u);

    // The drive dies a moment after the resume stream starts: the
    // pipeline winds the stream down and the engine re-prefills.
    engine.submit(returningTurn(2, 7, secToTicks(10.0)));
    tb.sim().queue().schedule(secToTicks(10.0) + msToTicks(2.0), [&] {
        tb.server().topology().markSsdFailed(true);
    });
    tb.sim().runUntil(secToTicks(40.0));
    ASSERT_EQ(engine.finished().size(), 2u);
    EXPECT_EQ(engine.streamResumeCount(), 0u);
    EXPECT_EQ(engine.recomputeResumeCount(), 1u);
    EXPECT_EQ(agent.parkedCount(), 0u);
    EXPECT_EQ(engine.finished()[1].tokensGenerated, 10u);
}

TEST(TierEngine, SwappedColdKvDemotesToSsdAndStillFinishes)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    auto &backend = tb.makeDramBackend(0);
    // Aggressive aging so swapped KV demotes within the test horizon.
    SsdTierConfig tc;
    tc.parkAfterSec = 0.5;
    tc.pressureParkAfterSec = 0.1;
    SsdTier agent(tb.server(), 0, tc);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    VllmEngine engine(tb.server(), 0, model::codellama34b(),
                      std::make_unique<CfsPolicy>(), backend, cfg);
    engine.attachSsdTier(&agent);

    // Growth past the 1 GiB pool forces swap-outs; preempted KV sits
    // in DRAM long enough for the settle pass to demote it.
    for (int i = 0; i < 8; ++i)
        engine.submit(makeRequest(i + 1, 0, 800, 300));
    tb.sim().runUntil(secToTicks(4000.0));

    ASSERT_EQ(engine.finished().size(), 8u);
    EXPECT_GT(engine.swapOutCount(), 0u);
    EXPECT_GT(engine.tierDemotionCount(), 0u);
    // Demoted KV came back through the SSD backend on swap-in.
    EXPECT_GT(tb.server().ssd().bytesRead(), 0u);
    // All tier records retired with the sequences.
    EXPECT_EQ(agent.trackedCount(), 0u);
    for (const auto &m : engine.finished())
        EXPECT_EQ(m.tokensGenerated, 300u);
}

TEST(TierEngine, TeardownReturnsEverySsdByte)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    const hw::Ssd &ssd = tb.server().ssd();
    auto &backend = tb.makeDramBackend(0);
    SsdTierConfig tc;
    tc.parkAfterSec = 0.5;
    tc.pressureParkAfterSec = 0.1;
    auto agent = std::make_unique<SsdTier>(tb.server(), 0, tc);
    VllmEngineConfig cfg;
    cfg.kvPoolBytesOverride = std::uint64_t(1) << 30;
    auto engine = std::make_unique<VllmEngine>(
        tb.server(), 0, model::codellama34b(),
        std::make_unique<CfsPolicy>(), backend, cfg);
    engine->attachSsdTier(agent.get());

    // A cold session parks at finish; swap pressure from later
    // requests then demotes preempted tails onto the media.
    engine->submit(coldFirstTurn(1, 7));
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(agent->parkedCount(), 1u);
    for (int i = 0; i < 8; ++i)
        engine->submit(makeRequest(i + 2, secToTicks(10.0), 800, 300));
    // Stop while a demoted tail of a still-swapped sequence sits on
    // the media next to the parked session.
    auto demotedLive = [&] {
        return ssd.capacity() - ssd.freeBytes() > agent->parkedBytes();
    };
    while (!demotedLive() && tb.sim().queue().step()) {
    }
    ASSERT_TRUE(demotedLive());
    EXPECT_EQ(agent->parkedCount(), 1u);
    EXPECT_GT(engine->tierDemotionCount(), 0u);
    EXPECT_LT(engine->finished().size(), 9u);

    engine.reset();
    agent.reset();
    EXPECT_EQ(ssd.freeBytes(), ssd.capacity());
}
