/**
 * @file
 * Tests for AQUA-PLACER and stable matching: Algorithm 1's
 * constraints and objective, the Fig. 4 colocation property,
 * warm-started re-placement from a prior, and matching stability
 * (with TEST_P property sweeps).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "exp/experiments.hh"
#include "placer/placer.hh"
#include "placer/stable_matching.hh"
#include "sim/random.hh"

using namespace aqua;
using namespace aqua::placer;
using aqua::sim::Random;

namespace {

constexpr std::int64_t gb = 1000 * 1000 * 1000;

PlacementInput
fig4Input()
{
    PlacementInput input;
    input.numServers = 2;
    input.gpusPerServer = 2;
    input.gpuMemBytes = 80ull * 1 << 30;
    input.models = {
        {"vision-a", 60 * gb},
        {"vision-b", 55 * gb},
        {"llm-a", -20 * gb},
        {"llm-b", -15 * gb},
    };
    return input;
}

} // anonymous namespace

TEST(Placer, EvaluateObjectiveMatchesHandComputation)
{
    PlacementInput input = fig4Input();
    // Segregated: server0 = both producers, server1 = both consumers.
    double segregated =
        evaluateObjective(input, {0, 0, 1, 1});
    // max mem = 115 GB; max eq = +2.
    EXPECT_NEAR(segregated,
                115.0 * gb + 2.0 * static_cast<double>(
                                       input.gpuMemBytes),
                1.0);
    // Colocated: one producer + one consumer per server.
    double colocated = evaluateObjective(input, {0, 1, 0, 1});
    EXPECT_NEAR(colocated,
                40.0 * gb + 0.0, 1.0);
    EXPECT_LT(colocated, segregated);
}

TEST(Placer, Fig4OptimalColocation)
{
    AquaPlacer placer;
    Placement p = placer.place(fig4Input());
    ASSERT_TRUE(p.valid());
    EXPECT_TRUE(p.optimal);
    // Each server hosts exactly one producer and one consumer.
    PlacementInput input = fig4Input();
    for (std::size_t s = 0; s < 2; ++s) {
        int producers = 0;
        int consumers = 0;
        for (std::size_t m = 0; m < 4; ++m) {
            if (p.server[m] != static_cast<int>(s))
                continue;
            producers += input.models[m].isProducer();
            consumers += input.models[m].isConsumer();
        }
        EXPECT_EQ(producers, 1);
        EXPECT_EQ(consumers, 1);
    }
    EXPECT_EQ(p.pairs.size(), 2u);
}

TEST(Placer, RespectsGpuCapacity)
{
    // Four models on one 4-GPU server: fits exactly.
    PlacementInput input = fig4Input();
    input.numServers = 1;
    input.gpusPerServer = 4;
    Placement p = AquaPlacer().place(input);
    ASSERT_TRUE(p.valid());
    for (int s : p.server)
        EXPECT_EQ(s, 0);
    EXPECT_EQ(p.pairs.size(), 2u);
}

TEST(Placer, InfeasibleWhenMoreModelsThanGpus)
{
    PlacementInput input = fig4Input();
    input.numServers = 1; // 2 GPUs for 4 models
    EXPECT_FALSE(greedyPlace(input).valid());
    EXPECT_FALSE(AquaPlacer().place(input).valid());
}

TEST(Placer, MilpNeverWorseThanGreedy)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        PlacementInput input =
            exp::makeClusterInput(4, 2, "balanced", seed);
        Placement greedy = greedyPlace(input);
        Placement milp = AquaPlacer().place(input);
        ASSERT_TRUE(greedy.valid());
        ASSERT_TRUE(milp.valid());
        EXPECT_LE(milp.objective, greedy.objective + 1.0)
            << "seed " << seed;
        // Every model assigned exactly once, within capacity.
        std::vector<int> load(input.numServers, 0);
        for (int s : milp.server) {
            ASSERT_GE(s, 0);
            ASSERT_LT(static_cast<std::size_t>(s),
                      input.numServers);
            ++load[s];
        }
        for (int l : load)
            EXPECT_LE(l,
                      static_cast<int>(input.gpusPerServer));
    }
}

TEST(Placer, BudgetedClusterPlacementsAreValidAndRepeatable)
{
    // The §6.1 cluster at a small node budget: the search stops on
    // the budget, never worse than the greedy seed, and replays the
    // same tree (no wall clock can cut it short).
    opt::MilpOptions milpOpt;
    milpOpt.maxNodes = 300;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        PlacementInput input =
            exp::makeClusterInput(8, 2, "balanced", seed);
        Placement greedy = greedyPlace(input);
        Placement a = AquaPlacer(milpOpt).place(input);
        Placement b = AquaPlacer(milpOpt).place(input);
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        ASSERT_TRUE(a.valid());
        EXPECT_EQ(a.server.size(), input.models.size());
        std::vector<std::size_t> load(input.numServers, 0);
        for (int s : a.server) {
            ASSERT_GE(s, 0);
            ASSERT_LT(static_cast<std::size_t>(s), input.numServers);
            ++load[s];
        }
        for (std::size_t l : load)
            EXPECT_LE(l, input.gpusPerServer);
        EXPECT_DOUBLE_EQ(a.objective,
                         evaluateObjective(input, a.server));
        EXPECT_LE(a.objective, greedy.objective);
        EXPECT_TRUE(a.optimal || a.nodesExplored == milpOpt.maxNodes);

        EXPECT_EQ(a.server, b.server);
        EXPECT_EQ(a.objective, b.objective);
        EXPECT_EQ(a.nodesExplored, b.nodesExplored);
        EXPECT_EQ(a.lpIterations, b.lpIterations);
        ASSERT_EQ(a.pairs.size(), b.pairs.size());
        for (std::size_t i = 0; i < a.pairs.size(); ++i) {
            EXPECT_EQ(a.pairs[i].consumerModel, b.pairs[i].consumerModel);
            EXPECT_EQ(a.pairs[i].producerModel, b.pairs[i].producerModel);
        }
    }
}

TEST(Placer, PairsLinkConsumersToProducersOnSameServer)
{
    PlacementInput input = exp::makeClusterInput(4, 2, "balanced", 7);
    Placement p = AquaPlacer().place(input);
    ASSERT_TRUE(p.valid());
    std::set<int> usedProducers;
    std::set<int> usedConsumers;
    for (const Pairing &pair : p.pairs) {
        EXPECT_TRUE(input.models[pair.consumerModel].isConsumer());
        EXPECT_TRUE(input.models[pair.producerModel].isProducer());
        EXPECT_EQ(p.server[pair.consumerModel], pair.server);
        EXPECT_EQ(p.server[pair.producerModel], pair.server);
        // One producer per consumer (§4).
        EXPECT_TRUE(usedProducers.insert(pair.producerModel).second);
        EXPECT_TRUE(usedConsumers.insert(pair.consumerModel).second);
    }
}

TEST(Placer, ClusterInputShapes)
{
    PlacementInput balanced =
        exp::makeClusterInput(8, 2, "balanced", 1);
    EXPECT_EQ(balanced.models.size(), 16u);
    int producers = 0;
    for (const ModelToPlace &m : balanced.models)
        producers += m.isProducer();
    EXPECT_GT(producers, 8); // 2/3 of a balanced split produce

    PlacementInput heavy =
        exp::makeClusterInput(8, 2, "llm-heavy", 1);
    int heavyProducers = 0;
    for (const ModelToPlace &m : heavy.models)
        heavyProducers += m.isProducer();
    EXPECT_EQ(heavyProducers, 8); // 50/50 split

    EXPECT_DEATH(exp::makeClusterInput(2, 2, "nonsense"),
                 "unknown split");
}

TEST(Placer, MemoryRequirementSigns)
{
    EXPECT_GT(exp::modelMemoryRequirement("StableDiffusion", true),
              0);
    EXPECT_GT(exp::modelMemoryRequirement("Llama-2-13B", true), 0);
    EXPECT_LT(exp::modelMemoryRequirement("OPT-30B", false), 0);
    EXPECT_LT(exp::modelMemoryRequirement("Codellama-34B", false),
              0);
}

namespace {

/** Per-server model counts, checked against each server's capacity. */
void
expectWithinCapacity(const PlacementInput &input, const Placement &p)
{
    ASSERT_TRUE(p.valid());
    std::vector<std::size_t> load(input.numServers, 0);
    for (int s : p.server) {
        ASSERT_GE(s, 0);
        ASSERT_LT(static_cast<std::size_t>(s), input.numServers);
        ++load[s];
    }
    for (std::size_t s = 0; s < input.numServers; ++s)
        EXPECT_LE(load[s], input.capacity(s)) << "server " << s;
}

std::size_t
modelsMoved(const std::vector<int> &prior, const std::vector<int> &now)
{
    std::size_t moved = 0;
    for (std::size_t m = 0; m < prior.size(); ++m)
        moved += prior[m] >= 0 && prior[m] != now[m];
    return moved;
}

} // anonymous namespace

TEST(Placer, EmptyPriorReproducesColdPlacements)
{
    // The §6.1 cluster at 300 nodes, pinned to the placements the
    // solver produced before warm starts existed: an empty prior must
    // take exactly the cold path.
    const std::vector<std::vector<int>> pinned = {
        {6, 2, 0, 6, 5, 1, 7, 5, 2, 0, 3, 3, 1, 4, 4, 7},
        {6, 1, 0, 6, 2, 2, 0, 4, 1, 7, 5, 3, 5, 3, 4, 7},
        {0, 1, 5, 3, 6, 5, 1, 2, 0, 6, 4, 3, 7, 4, 7, 2},
        {7, 5, 4, 6, 5, 0, 6, 2, 1, 7, 3, 3, 0, 4, 2, 1},
        {7, 2, 0, 6, 4, 1, 6, 5, 2, 0, 5, 3, 1, 3, 4, 7},
        {2, 3, 2, 0, 5, 4, 0, 6, 6, 4, 1, 7, 3, 1, 5, 7},
    };
    const std::vector<std::uint64_t> lpIterations = {2498, 2617, 2268,
                                                     2389, 2449, 2113};
    opt::MilpOptions milpOpt;
    milpOpt.maxNodes = 300;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        PlacementInput input =
            exp::makeClusterInput(8, 2, "balanced", seed);
        Placement p = AquaPlacer(milpOpt).place(input, {});
        EXPECT_EQ(p.server, pinned[seed]);
        EXPECT_EQ(p.nodesExplored, 300u);
        EXPECT_EQ(p.lpIterations, lpIterations[seed]);
    }
}

TEST(Placer, OptimalPriorMovesNothing)
{
    for (PlacementInput input :
         {fig4Input(), exp::makeClusterInput(4, 2, "balanced", 3)}) {
        Placement cold = AquaPlacer().place(input);
        ASSERT_TRUE(cold.optimal);
        Placement warm = AquaPlacer().place(input, cold.server);
        EXPECT_EQ(warm.server, cold.server);
        EXPECT_EQ(warm.objective, cold.objective);
        EXPECT_TRUE(warm.optimal);
    }
}

TEST(Placer, GpuFailureOverfillingItsServerStaysFeasible)
{
    // 5 models on 2 servers x 3 GPUs: one server hosts 3. Losing one
    // of its GPUs over-fills it; the re-placement must fit the
    // shrunken server without evicting anyone else.
    PlacementInput input = fig4Input();
    input.gpusPerServer = 3;
    input.models.push_back({"fifth", 8 * gb});
    Placement before = AquaPlacer().place(input);
    ASSERT_TRUE(before.valid());
    std::vector<std::size_t> load(input.numServers, 0);
    for (int s : before.server)
        ++load[static_cast<std::size_t>(s)];
    std::size_t full = load[0] == 3 ? 0 : 1;
    ASSERT_EQ(load[full], 3u);

    input.lostGpus.assign(input.numServers, 0);
    input.lostGpus[full] = 1;
    EXPECT_EQ(input.capacity(full), 2u);
    Placement after = AquaPlacer().place(input, before.server);
    expectWithinCapacity(input, after);
    EXPECT_GE(modelsMoved(before.server, after.server), 1u);
}

TEST(Placer, WarmArrivalIntoFullClusterIsInfeasible)
{
    PlacementInput input = fig4Input(); // 4 models, 2x2 GPUs: full
    Placement before = AquaPlacer().place(input);
    ASSERT_TRUE(before.valid());
    input.models.push_back({"overflow", 10 * gb});
    std::vector<int> prior = before.server;
    prior.push_back(-1);
    // No placement comes back, so the caller keeps its prior one.
    EXPECT_FALSE(AquaPlacer().place(input, prior).valid());
}

TEST(Placer, LostGpusBoundColdSolveAndGreedy)
{
    // Lost GPUs shrink one server's slots, not every server's.
    PlacementInput input = exp::makeClusterInput(4, 3, "balanced", 2);
    input.models.resize(9);
    input.lostGpus = {2, 0, 1, 0};
    expectWithinCapacity(input, greedyPlace(input));
    expectWithinCapacity(input, AquaPlacer().place(input));
    input.lostGpus = {3, 3, 3, 1};
    EXPECT_FALSE(AquaPlacer().place(input).valid());
}

TEST(StableMatching, TextbookInstance)
{
    // Classic 3x3 instance with known proposer-optimal outcome.
    std::vector<std::vector<int>> men = {
        {0, 1, 2}, {1, 0, 2}, {0, 1, 2}};
    std::vector<std::vector<int>> women = {
        {1, 0, 2}, {0, 1, 2}, {0, 1, 2}};
    std::vector<int> match = stableMatch(men, women, 3);
    EXPECT_TRUE(isStableMatching(men, women, match, 3));
    // Everyone is matched.
    std::set<int> partners(match.begin(), match.end());
    EXPECT_EQ(partners.size(), 3u);
    EXPECT_FALSE(partners.count(-1));
}

TEST(StableMatching, UnbalancedSidesLeaveSomeUnmatched)
{
    std::vector<std::vector<int>> proposers = {{0}, {0}, {0}};
    std::vector<std::vector<int>> acceptors = {{2, 1, 0}};
    std::vector<int> match = stableMatch(proposers, acceptors, 1);
    EXPECT_EQ(match[2], 0); // the acceptor's favourite wins
    EXPECT_EQ(match[0], -1);
    EXPECT_EQ(match[1], -1);
    EXPECT_TRUE(isStableMatching(proposers, acceptors, match, 1));
}

TEST(StableMatching, UnacceptablePartnersRespected)
{
    // Acceptor 0 ranks only proposer 1.
    std::vector<std::vector<int>> proposers = {{0}, {0}};
    std::vector<std::vector<int>> acceptors = {{1}};
    std::vector<int> match = stableMatch(proposers, acceptors, 1);
    EXPECT_EQ(match[0], -1);
    EXPECT_EQ(match[1], 0);
}

/** Property: random preference instances always yield stability. */
class MatchingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MatchingProperty, AlwaysStable)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 30; ++trial) {
        std::size_t n = static_cast<std::size_t>(
            rng.uniformInt(1, 8));
        std::size_t m = static_cast<std::size_t>(
            rng.uniformInt(1, 8));
        auto randomPrefs = [&](std::size_t count,
                               std::size_t others) {
            std::vector<std::vector<int>> prefs(count);
            for (auto &p : prefs) {
                for (std::size_t o = 0; o < others; ++o) {
                    if (rng.bernoulli(0.85))
                        p.push_back(static_cast<int>(o));
                }
                // Shuffle.
                for (std::size_t i = p.size(); i > 1; --i) {
                    std::size_t j = static_cast<std::size_t>(
                        rng.uniformInt(0,
                                       static_cast<std::int64_t>(i) -
                                           1));
                    std::swap(p[i - 1], p[j]);
                }
            }
            return prefs;
        };
        auto proposers = randomPrefs(n, m);
        auto acceptors = randomPrefs(m, n);
        std::vector<int> match = stableMatch(proposers, acceptors, m);
        EXPECT_TRUE(isStableMatching(proposers, acceptors, match, m));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));
