/**
 * @file
 * Tests for the benchmark's own helpers: the tail-percentile rule,
 * SLO attainment over attempted requests, and that the traced run's
 * probes (offload decorator, REST hook, host timers, engine hooks)
 * leave a workload's modeled output unchanged.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "probes.hh"
#include "report.hh"
#include "workloads.hh"

using namespace aqua;
using namespace aqua::perfbench;
using aqua::sim::secToTicks;
using workload::RequestMetrics;

namespace {

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // unsorted on purpose
    return v;
}

RequestMetrics
servedRequest(double arrival, double ttft, double rct,
              std::uint32_t tokens)
{
    RequestMetrics m;
    m.arrival = secToTicks(arrival);
    m.admitted = m.arrival;
    m.firstToken = secToTicks(arrival + ttft);
    m.finish = secToTicks(arrival + rct);
    m.tokensGenerated = tokens;
    return m;
}

} // anonymous namespace

TEST(TailPercentile, P95NeedsTenSamplesBeyond)
{
    Percentile short199 = tailPercentile(iota(199), 95.0);
    EXPECT_EQ(short199.samples, 199u);
    EXPECT_EQ(short199.beyond, 9u);
    EXPECT_FALSE(short199.reportable);

    Percentile ok200 = tailPercentile(iota(200), 95.0);
    EXPECT_EQ(ok200.samples, 200u);
    EXPECT_EQ(ok200.beyond, 10u);
    EXPECT_TRUE(ok200.reportable);
    // Nearest rank 190 of 1..200.
    EXPECT_DOUBLE_EQ(ok200.value, 190.0);
}

TEST(TailPercentile, MedianAndEdgeCases)
{
    Percentile p50 = tailPercentile({3.0, 1.0, 2.0}, 50.0, 0);
    EXPECT_DOUBLE_EQ(p50.value, 2.0);
    EXPECT_EQ(p50.beyond, 1u);
    EXPECT_TRUE(p50.reportable);

    Percentile empty = tailPercentile({}, 95.0);
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_FALSE(empty.reportable);

    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Tpot, ExcludesFirstTokenAndOneTokenReplies)
{
    // 11 tokens: the 10 after the first took 1 s in total.
    RequestMetrics m = servedRequest(0.0, 0.5, 1.5, 11);
    EXPECT_NEAR(tpotSec(m), 0.1, 1e-9);
    EXPECT_DOUBLE_EQ(tpotSec(servedRequest(0.0, 0.5, 0.5, 1)), 0.0);
}

TEST(SloAttainment, CountsUnfinishedAndShedAsMisses)
{
    SloSpec slo; // TTFT <= 2 s, TPOT <= 0.25 s
    std::vector<RequestMetrics> attempted;
    attempted.push_back(servedRequest(0.0, 1.0, 3.0, 21)); // meets
    attempted.push_back(servedRequest(0.0, 3.0, 5.0, 21)); // slow TTFT
    attempted.push_back(servedRequest(0.0, 1.0, 21.0, 21)); // slow TPOT
    RequestMetrics unfinished;
    unfinished.arrival = secToTicks(1.0);
    unfinished.firstToken = secToTicks(1.5);
    attempted.push_back(unfinished);
    RequestMetrics shed = servedRequest(0.0, 1.0, 3.0, 21);
    shed.shed = true;
    attempted.push_back(shed);

    EXPECT_FALSE(served(unfinished));
    EXPECT_FALSE(served(shed));
    EXPECT_DOUBLE_EQ(sloAttainment(attempted, slo), 1.0 / 5.0);
    EXPECT_DOUBLE_EQ(sloAttainment({}, slo), 0.0);
}

TEST(Probes, OffloadDecoratorForwardsUnchanged)
{
    exp::Testbed bare(2, hw::TopologyKind::DirectP2P);
    exp::Testbed probed(2, hw::TopologyKind::DirectP2P);
    serve::OffloadBackend &plain = bare.makeDramBackend(0);
    Tracer tracer;
    serve::OffloadBackend &wrapped =
        tracer.wrap(probed.makeDramBackend(0), probed.sim());

    auto a = plain.alloc(64 << 20);
    auto b = wrapped.alloc(64 << 20);
    ASSERT_TRUE(a && b);
    hw::TransferTiming wa = plain.write(*a, 64 << 20, 16);
    hw::TransferTiming wb = wrapped.write(*b, 64 << 20, 16);
    EXPECT_EQ(wa.start, wb.start);
    EXPECT_EQ(wa.complete, wb.complete);
    hw::TransferTiming ra = plain.read(*a, 64 << 20, 16);
    hw::TransferTiming rb = wrapped.read(*b, 64 << 20, 16);
    EXPECT_EQ(ra.complete, rb.complete);
    EXPECT_EQ(plain.respond(), wrapped.respond());
    EXPECT_EQ(plain.name(), wrapped.name());
    EXPECT_EQ(plain.staged(), wrapped.staged());

    EXPECT_EQ(tracer.offloadCalls, 4u);
    EXPECT_EQ(tracer.offloadBytes, 2u * (64u << 20));
    EXPECT_NEAR(tracer.offloadLinkSec,
                aqua::sim::ticksToSec(wb.complete - wb.start) +
                    aqua::sim::ticksToSec(rb.complete - rb.start),
                1e-12);
    ASSERT_EQ(tracer.offloadSpans.size(), 4u);
    EXPECT_EQ(tracer.offloadSpans[1].op, 'w');
}

TEST(Probes, RestHookCountsAndDelivers)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    Tracer tracer;
    tracer.countRest(tb.rest().router());
    core::AquaLib &lib = tb.makeAquaLib(0);
    tb.assign(0, 1);
    tb.coordinator().lease(1, std::uint64_t(8) << 30);
    serve::AquaBackend &backend = tb.makeAquaBackend(lib);
    auto h = backend.alloc(std::uint64_t(1) << 30);
    ASSERT_TRUE(h.has_value());
    EXPECT_GT(tracer.totalRestCalls(), 0u);
    EXPECT_EQ(lib.stats().restFailures, 0u);
}

TEST(Probes, TracedBurstsModelsTheSameAsBare)
{
    RunParams p;
    p.seed = 3;
    RunResult bare = runBursts(p);
    Tracer tracer;
    p.tracer = &tracer;
    RunResult traced = runBursts(p);

    EXPECT_TRUE(bare.failures.empty());
    EXPECT_EQ(modeledDigest(bare), modeledDigest(traced));
    EXPECT_EQ(bare.layer, traced.layer);
    // The probes really were on the path.
    EXPECT_GT(tracer.offloadCalls, 0u);
    EXPECT_GT(tracer.totalRestCalls(), 0u);
    EXPECT_GT(tracer.iterationCount, 0u);
    EXPECT_EQ(tracer.requestSpans.size(), traced.requests.size());
    EXPECT_GT(tracer.simRunHostSec, 0.0);
}

TEST(Placement, ViolationsAreReported)
{
    placer::PlacementInput input;
    input.numServers = 2;
    input.gpusPerServer = 2;
    input.models = {{"p", 10}, {"c", -10}, {"p2", 10}};
    placer::Placement ok;
    ok.server = {0, 0, 1};
    ok.pairs = {{1, 0, 0}};
    ok.nodesExplored = 5;
    ok.optimal = true;
    EXPECT_TRUE(placementViolations(input, ok, 5).empty());

    placer::Placement crowded = ok;
    crowded.server = {0, 0, 0};
    EXPECT_FALSE(placementViolations(input, crowded, 5).empty());

    placer::Placement split = ok;
    split.pairs = {{1, 2, 0}}; // producer 2 sits on server 1
    EXPECT_FALSE(placementViolations(input, split, 5).empty());

    placer::Placement overBudget = ok;
    overBudget.nodesExplored = 6;
    EXPECT_FALSE(placementViolations(input, overBudget, 5).empty());

    placer::Placement stoppedEarly = ok;
    stoppedEarly.optimal = false;
    stoppedEarly.nodesExplored = 3;
    EXPECT_FALSE(placementViolations(input, stoppedEarly, 5).empty());
}
