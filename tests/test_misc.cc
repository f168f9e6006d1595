/**
 * @file
 * Tests for the smaller pieces: tick formatting, the staging model,
 * the experiment testbed, and fuzz-style invariants over the
 * coordinator and topology.
 */

#include <gtest/gtest.h>

#include "aqua/coordinator.hh"
#include "aqua/staging.hh"
#include "exp/experiments.hh"
#include "exp/testbed.hh"
#include "sim/random.hh"
#include "sim/ticks.hh"

using namespace aqua;
using namespace aqua::sim;

TEST(Ticks, Conversions)
{
    EXPECT_EQ(secToTicks(1.0), nsPerSec);
    EXPECT_EQ(msToTicks(1.5), 1500000u);
    EXPECT_EQ(usToTicks(2.0), 2000u);
    EXPECT_DOUBLE_EQ(ticksToSec(nsPerSec), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(nsPerMs), 1.0);
}

TEST(Ticks, DurationFormatting)
{
    EXPECT_EQ(formatDuration(500), "500ns");
    EXPECT_EQ(formatDuration(usToTicks(12.5)), "12.500us");
    EXPECT_EQ(formatDuration(msToTicks(3.25)), "3.250ms");
    EXPECT_EQ(formatDuration(secToTicks(2.0)), "2.000s");
}

TEST(Ticks, ByteFormatting)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(2 * kib), "2.0KiB");
    EXPECT_EQ(formatBytes(3 * mib + mib / 2), "3.5MiB");
    EXPECT_EQ(formatBytes(80 * gib), "80.0GiB");
}

TEST(Staging, GatherScalesWithBytesAndIsSymmetric)
{
    core::StagingModel staging(hw::a100_80g());
    Tick small = staging.gatherTime(1 * mib);
    Tick large = staging.gatherTime(256 * mib);
    EXPECT_GT(large, small);
    EXPECT_EQ(staging.gatherTime(64 * mib),
              staging.scatterTime(64 * mib));
    // 2 x 256 MiB through 1.6 TB/s HBM ~ 0.34 ms plus a launch.
    EXPECT_NEAR(ticksToMs(large), 0.34, 0.1);
}

TEST(Staging, GatherIsFarCheaperThanTheLinkTimeItSaves)
{
    core::StagingModel staging(hw::a100_80g());
    hw::GpuSpec spec = hw::a100_80g();
    hw::Link nvlink("nvlink", spec.nvlinkBandwidth,
                    spec.nvlinkRampBytes, spec.nvlinkLatency);
    // KV-block-sized chunks (sub-MiB) are deep in the slow region
    // of Fig. 3a; one gathered transfer dominates.
    std::uint64_t bytes = 384 * mib;
    Tick gather = staging.gatherTime(bytes);
    Tick chunkedCopy = nvlink.transferTimeChunked(bytes / 512, 512);
    Tick stagedCopy = nvlink.transferTime(bytes);
    EXPECT_LT(gather + stagedCopy, chunkedCopy / 2);
}

TEST(Testbed, BuildsServersAndControlPlane)
{
    exp::Testbed tb(8, hw::TopologyKind::NvSwitch, 99);
    EXPECT_EQ(tb.server().numGpus(), 8u);
    EXPECT_EQ(tb.server().topology().kind(),
              hw::TopologyKind::NvSwitch);
    tb.assign(0, 1);
    ASSERT_TRUE(tb.coordinator().producerFor(0).has_value());
    EXPECT_EQ(*tb.coordinator().producerFor(0), 1);
}

TEST(Testbed, DriveTraceDeliversAtArrival)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    struct Sink
    {
        std::vector<std::pair<Tick, std::uint64_t>> got;
        aqua::sim::Simulation *sim;
        void
        submit(const workload::Request &r)
        {
            got.emplace_back(sim->now(), r.id);
        }
    } sink;
    sink.sim = &tb.sim();
    std::vector<workload::Request> trace(3);
    for (std::uint64_t i = 0; i < 3; ++i) {
        trace[i].id = i;
        trace[i].arrival = secToTicks(static_cast<double>(i + 1));
    }
    exp::driveTrace(tb.sim(), sink, trace);
    tb.sim().runUntil(secToTicks(10.0));
    ASSERT_EQ(sink.got.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(sink.got[i].second, i);
        EXPECT_EQ(sink.got[i].first,
                  secToTicks(static_cast<double>(i + 1)));
    }
}

/** Fuzz: random coordinator traffic keeps the books balanced. */
class CoordinatorFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(CoordinatorFuzz, AccountingInvariants)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    core::Coordinator coord;
    coord.assignProducer(0, 1);
    coord.lease(1, std::uint64_t(16) << 30);

    struct Live
    {
        core::TensorId id;
        std::uint64_t bytes;
    };
    std::vector<Live> live;
    std::uint64_t peerBytes = 0;

    for (int step = 0; step < 3000; ++step) {
        double dice = rng.uniform();
        if (dice < 0.5 || live.empty()) {
            std::uint64_t bytes = static_cast<std::uint64_t>(
                rng.uniformInt(1 << 20, 1 << 30));
            auto alloc = coord.allocate(0, bytes);
            live.push_back({alloc.id, bytes});
            if (alloc.location.placement ==
                core::Placement::PeerGpu)
                peerBytes += bytes;
        } else if (dice < 0.9) {
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) - 1));
            core::Location loc =
                coord.tensorLocation(live[idx].id);
            coord.free(live[idx].id);
            if (loc.placement == core::Placement::PeerGpu)
                peerBytes -= live[idx].bytes;
            live[idx] = live.back();
            live.pop_back();
        } else {
            // Drain migrations so reclaim-less promotion holds the
            // invariant: respond or settle pending orders.
            for (const core::MigrationOrder &order :
                 coord.respond(0)) {
                if (order.to.placement ==
                    core::Placement::PeerGpu)
                    peerBytes += order.bytes;
                else
                    peerBytes -= order.bytes;
                coord.doneMoving(order);
            }
        }
        ASSERT_EQ(coord.bytesOnProducers(), peerBytes);
        ASSERT_LE(coord.producerState(1).usedBytes,
                  coord.producerState(1).leasedBytes);
        ASSERT_EQ(coord.liveTensors(), live.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorFuzz,
                         ::testing::Values(3, 11, 27));

/** Fuzz: random transfers keep topology byte accounting exact. */
class TopologyFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(TopologyFuzz, ByteCountersExact)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    Simulation sim;
    hw::Server server(sim, 4, hw::a100_80g(),
                      hw::TopologyKind::NvSwitch);
    hw::Topology &topo = server.topology();

    std::uint64_t expectPeer = 0;
    std::uint64_t expectHost = 0;
    Tick lastComplete = 0;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t bytes = static_cast<std::uint64_t>(
            rng.uniformInt(1, 64 << 20));
        int src = static_cast<int>(rng.uniformInt(-1, 3));
        int dst = static_cast<int>(rng.uniformInt(-1, 3));
        if (src == dst)
            continue;
        hw::TransferTiming t = topo.copy(src, dst, bytes);
        EXPECT_GE(t.complete, t.start);
        lastComplete = std::max(lastComplete, t.complete);
        if (src == hw::hostDramId || dst == hw::hostDramId)
            expectHost += bytes;
        else
            expectPeer += bytes;
        ASSERT_EQ(topo.peerBytesMoved(), expectPeer);
        ASSERT_EQ(topo.hostBytesMoved(), expectHost);
    }
    // GPU-side per-device counters sum to twice the peer traffic
    // (each peer copy touches two GPUs) plus host traffic once.
    std::uint64_t gpuNvlink = 0;
    std::uint64_t gpuPcie = 0;
    for (int g = 0; g < 4; ++g) {
        gpuNvlink += server.gpu(g).nvlinkBytes();
        gpuPcie += server.gpu(g).pcieBytes();
    }
    EXPECT_EQ(gpuNvlink, 2 * expectPeer);
    EXPECT_EQ(gpuPcie, expectHost);
    sim.runUntil(lastComplete);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyFuzz,
                         ::testing::Values(5, 19, 77));

TEST(Simulation, ChildStreamsAreIndependentAndOrdered)
{
    Simulation a(42);
    Simulation b(42);
    Random a1 = a.makeRandom();
    Random a2 = a.makeRandom();
    Random b1 = b.makeRandom();
    // Same seed, same creation order => identical streams.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a1.next64(), b1.next64());
    // Different streams diverge.
    Random a1again(1);
    (void)a1again;
    int equal = 0;
    Random c1 = Simulation(42).makeRandom();
    for (int i = 0; i < 100; ++i)
        equal += c1.next64() == a2.next64();
    EXPECT_LT(equal, 5);
}

TEST(Determinism, IdenticalSeedsReplayIdenticalExperiments)
{
    exp::CfsExperimentConfig cfg;
    cfg.mode = exp::ServeMode::CfsAqua;
    cfg.ratePerSec = 5.0;
    cfg.numRequests = 40;
    cfg.seed = 1234;
    exp::CfsExperimentResult first = exp::runCfsExperiment(cfg);
    exp::CfsExperimentResult second = exp::runCfsExperiment(cfg);
    ASSERT_EQ(first.metrics.size(), second.metrics.size());
    for (std::size_t i = 0; i < first.metrics.size(); ++i) {
        EXPECT_EQ(first.metrics[i].id, second.metrics[i].id);
        EXPECT_EQ(first.metrics[i].arrival,
                  second.metrics[i].arrival);
        EXPECT_EQ(first.metrics[i].firstToken,
                  second.metrics[i].firstToken);
        EXPECT_EQ(first.metrics[i].finish,
                  second.metrics[i].finish);
    }
    EXPECT_EQ(first.swapOuts, second.swapOuts);
}

TEST(Determinism, DifferentSeedsDiffer)
{
    exp::CfsExperimentConfig cfg;
    cfg.mode = exp::ServeMode::VllmBaseline;
    cfg.numRequests = 40;
    cfg.seed = 1;
    exp::CfsExperimentResult a = exp::runCfsExperiment(cfg);
    cfg.seed = 2;
    exp::CfsExperimentResult b = exp::runCfsExperiment(cfg);
    bool anyDiff = false;
    for (std::size_t i = 0;
         i < std::min(a.metrics.size(), b.metrics.size()); ++i)
        anyDiff |= a.metrics[i].finish != b.metrics[i].finish;
    EXPECT_TRUE(anyDiff);
}

TEST(AquaLibConfig, RestLatencyBoundsRespond)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    core::AquaLibConfig cfg;
    cfg.restLatency = usToTicks(500.0);
    core::AquaLib &lib = tb.makeAquaLib(0, nullptr, cfg);
    Tick blocked = lib.respond(); // no orders: just the round trip
    EXPECT_EQ(blocked, tb.sim().now() + usToTicks(500.0));
}
