/**
 * @file
 * Churn re-placement against the incremental placer it replaced.
 *
 * The cluster model re-places its live models through one AquaPlacer
 * solve per churn event, warm-started from the current assignment.
 * The old repair policy survives as a test-only reference
 * (reference_incremental_placer.hh); its own behaviour is pinned
 * first, then a seeded random-churn property checks the new path
 * against it: every live model placed within each server's capacity,
 * each event no worse than the prior's completion, no model moved
 * without a strict gain unless a failed GPU pushed it off, the same
 * feasibility verdicts as the reference, and a final objective no
 * worse than the reference's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "placer/placer.hh"
#include "sim/random.hh"
#include "tests/reference_incremental_placer.hh"

using namespace aqua;
using namespace aqua::placer;
using namespace aqua::placer::reference;
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

/** Small random instance the MILP solves to optimality quickly. */
PlacementInput
randomInstance(Random &rng)
{
    PlacementInput in;
    in.numServers = static_cast<std::size_t>(rng.uniformInt(2, 4));
    in.gpusPerServer = static_cast<std::size_t>(rng.uniformInt(2, 3));
    in.gpuMemBytes = 80ull << 30;
    std::size_t models = static_cast<std::size_t>(rng.uniformInt(
        2, static_cast<std::int64_t>(in.numServers *
                                     in.gpusPerServer) - 1));
    for (std::size_t m = 0; m < models; ++m) {
        std::int64_t mem = rng.uniformInt(5, 60) * gb;
        if (rng.bernoulli(0.5))
            mem = -mem;
        in.models.push_back({"m" + std::to_string(m), mem});
    }
    return in;
}

/** A fresh model for arrival mutations. */
ModelToPlace
randomModel(Random &rng, int tag)
{
    std::int64_t mem = rng.uniformInt(5, 60) * gb;
    if (rng.bernoulli(0.5))
        mem = -mem;
    return {"arr" + std::to_string(tag), mem};
}

/**
 * From-scratch objective on the placer's current live instance.
 * @return false when the compact instance (uniform min-capacity,
 * see IncrementalPlacer::liveInput) is infeasible from scratch —
 * the incremental state can still be valid against the true
 * per-server capacities, so there is nothing to compare to.
 */
bool
scratchObjective(const IncrementalPlacer &p, double *objective)
{
    PlacementInput live = p.liveInput();
    if (live.models.empty()) {
        *objective = 0.0;
        return true;
    }
    Placement s = AquaPlacer().place(live);
    if (!s.valid())
        return false;
    *objective = s.objective;
    return true;
}

} // anonymous namespace

//
// The reference itself: the incremental placer's repair contract.
//

TEST(IncrementalPlacer, InitialSolveMatchesFromScratch)
{
    PlacementInput in = fig4Input();
    IncrementalPlacer inc(in);
    Placement scratch = AquaPlacer().place(in);
    ASSERT_TRUE(scratch.valid());
    EXPECT_DOUBLE_EQ(inc.objective(), scratch.objective);
    EXPECT_EQ(inc.fullSolves(), 1u);
    EXPECT_EQ(inc.repairs(), 0u);
}

TEST(IncrementalPlacer, ArrivalPlacesOnFeasibleServer)
{
    // fig4 proper is full (4 models on 2x2 GPUs); widen the servers
    // so the late arrival has somewhere to land.
    PlacementInput in = fig4Input();
    in.gpusPerServer = 3;
    IncrementalPlacer inc(in);
    RepairOutcome out = inc.onArrival({"late-consumer", -10 * gb});
    EXPECT_NE(out.kind, RepairOutcome::Kind::Infeasible);
    EXPECT_EQ(inc.liveModels(), 5u);
    const std::vector<int> &assign = inc.assignment();
    EXPECT_GE(assign.back(), 0);
}

TEST(IncrementalPlacer, DepartureTombstonesTheModel)
{
    PlacementInput in = fig4Input();
    IncrementalPlacer inc(in);
    // A departure can legitimately trip the quality gate (removing a
    // consumer raises the host's eq term), so either Repair or
    // FullSolve is fine — only Infeasible would be wrong.
    RepairOutcome out = inc.onDeparture(2);
    EXPECT_NE(out.kind, RepairOutcome::Kind::Infeasible);
    EXPECT_FALSE(inc.live(2));
    EXPECT_EQ(inc.assignment()[2], -1);
    EXPECT_EQ(inc.liveModels(), 3u);
}

TEST(IncrementalPlacer, ArrivalIntoFullClusterIsInfeasible)
{
    PlacementInput in = fig4Input(); // 4 models, 2x2 GPUs: full
    IncrementalPlacer inc(in);
    RepairOutcome out = inc.onArrival({"overflow", 10 * gb});
    EXPECT_EQ(out.kind, RepairOutcome::Kind::Infeasible);
    EXPECT_EQ(inc.liveModels(), 4u);
}

TEST(IncrementalPlacer, GpuFailureDisplacesWhenOverSubscribed)
{
    // 5 models on 2 servers x 3 GPUs: one server hosts 3, the other
    // has a spare slot — failing the loaded server forces exactly one
    // displacement (a full fig4 cluster would leave nowhere to go).
    PlacementInput in = fig4Input();
    in.gpusPerServer = 3;
    in.models.push_back({"fifth", 8 * gb});
    IncrementalPlacer inc(in);
    std::vector<std::size_t> load(in.numServers, 0);
    for (int s : inc.assignment())
        ++load[static_cast<std::size_t>(s)];
    int victim = 0;
    for (std::size_t s = 1; s < in.numServers; ++s)
        if (load[s] > load[static_cast<std::size_t>(victim)])
            victim = static_cast<int>(s);
    ASSERT_EQ(load[static_cast<std::size_t>(victim)], 3u);
    RepairOutcome out = inc.onGpuFailure(victim);
    EXPECT_NE(out.kind, RepairOutcome::Kind::Infeasible);
    EXPECT_EQ(inc.capacity(victim), 2u);
    std::size_t onVictim = 0;
    for (std::size_t m = 0; m < inc.models().size(); ++m)
        if (inc.live(m) && inc.assignment()[m] == victim)
            ++onVictim;
    EXPECT_LE(onVictim, 2u);
}

TEST(IncrementalPlacer, RepairBudgetForcesResolve)
{
    PlacementInput in = fig4Input();
    RepairConfig rc;
    rc.maxRepairsBeforeSolve = 2;
    rc.qualitySlack = 1e9; // isolate the budget from the quality gate
    IncrementalPlacer inc(in, rc);
    inc.onDeparture(2);
    RepairOutcome out = inc.onDeparture(3);
    EXPECT_EQ(out.kind, RepairOutcome::Kind::FullSolve);
    EXPECT_GE(inc.fullSolves(), 2u);
}

/**
 * The reference's equivalence property: after any mutation sequence
 * the repaired placement's objective stays within the configured
 * slack of a from-scratch solve of the same live instance, across a
 * seed sweep.
 */
class IncrementalEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(IncrementalEquivalence, RepairTracksFromScratchSolve)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    PlacementInput in = randomInstance(rng);
    RepairConfig rc;
    IncrementalPlacer inc(in, rc);

    for (int step = 0; step < 12; ++step) {
        double roll = rng.uniform();
        if (roll < 0.4) {
            inc.onArrival(randomModel(rng, step));
        } else if (roll < 0.8) {
            std::vector<std::size_t> live;
            for (std::size_t m = 0; m < inc.models().size(); ++m)
                if (inc.live(m))
                    live.push_back(m);
            if (live.empty())
                continue;
            inc.onDeparture(live[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(live.size())
                                   - 1))]);
        } else {
            int srv = static_cast<int>(rng.uniformInt(
                0, static_cast<std::int64_t>(in.numServers) - 1));
            RepairOutcome out = inc.onGpuFailure(srv);
            if (out.kind == RepairOutcome::Kind::Infeasible) {
                // With nowhere to displace to, the placer leaves the
                // failed server over-subscribed for the caller.
                // Resolve it the way a real caller would — depart a
                // model from it.
                std::size_t srvLoad = 0;
                for (std::size_t m = 0; m < inc.models().size(); ++m)
                    if (inc.live(m) && inc.assignment()[m] == srv)
                        ++srvLoad;
                if (srvLoad > inc.capacity(srv)) {
                    for (std::size_t m = 0; m < inc.models().size();
                         ++m) {
                        if (inc.live(m) &&
                            inc.assignment()[m] == srv) {
                            inc.onDeparture(m);
                            break;
                        }
                    }
                }
            }
        }

        if (inc.liveModels() == 0)
            continue;
        // Every live model is placed and no server over-subscribed.
        std::vector<std::size_t> load(in.numServers, 0);
        for (std::size_t m = 0; m < inc.models().size(); ++m) {
            if (!inc.live(m))
                continue;
            int s = inc.assignment()[m];
            ASSERT_GE(s, 0) << "live model unplaced at step " << step;
            ++load[static_cast<std::size_t>(s)];
        }
        for (std::size_t s = 0; s < in.numServers; ++s)
            EXPECT_LE(load[s], inc.capacity(static_cast<int>(s)))
                << "server " << s << " over capacity at step "
                << step;

        // Objective within slack of the from-scratch solve. Skipped
        // when the uniform min-capacity compact instance has become
        // infeasible from scratch (the repaired state is then only
        // valid against the true per-server capacities, which the
        // load checks above already cover).
        double scratch = 0.0;
        if (scratchObjective(inc, &scratch)) {
            double slack = rc.qualitySlack *
                               (std::abs(scratch) +
                                static_cast<double>(in.gpuMemBytes)) +
                           1.0;
            EXPECT_LE(inc.objective(), scratch + slack)
                << "repair drifted past slack at step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21));

TEST(IncrementalPlacer, MutationSequenceIsDeterministic)
{
    // Two placers fed the identical mutation sequence end in the
    // identical state.
    auto run = [](std::vector<int> *assign, double *obj) {
        Random rng(99);
        PlacementInput in = randomInstance(rng);
        IncrementalPlacer inc(in);
        inc.onArrival(randomModel(rng, 0));
        inc.onGpuFailure(0);
        inc.onArrival(randomModel(rng, 1));
        inc.onDeparture(0);
        *assign = inc.assignment();
        *obj = inc.objective();
    };
    std::vector<int> a1, a2;
    double o1 = 0.0, o2 = 0.0;
    run(&a1, &o1);
    run(&a2, &o2);
    EXPECT_EQ(a1, a2);
    EXPECT_EQ(o1, o2);
}

//
// The new path: one warm-started AquaPlacer solve per churn event.
//

namespace {

/**
 * Objective of the prior's completion, computed independently of the
 * placer: models keep their prior server while it has room (index
 * order); the rest go, in index order, to the server with room that
 * minimizes the objective of the models placed so far. @p forced
 * gets the number of prior models that lost their room.
 */
double
completionObjective(const PlacementInput &in, const std::vector<int> &prior,
                    std::size_t *forced)
{
    std::vector<int> server(in.models.size(), -1);
    std::vector<std::size_t> load(in.numServers, 0);
    *forced = 0;
    for (std::size_t m = 0; m < prior.size(); ++m) {
        if (prior[m] < 0)
            continue;
        if (load[prior[m]] < in.capacity(prior[m])) {
            server[m] = prior[m];
            ++load[prior[m]];
        } else {
            ++*forced;
        }
    }
    auto partialObjective = [&] {
        std::vector<double> mem(in.numServers, 0.0);
        std::vector<double> eq(in.numServers, 0.0);
        for (std::size_t m = 0; m < server.size(); ++m) {
            if (server[m] < 0)
                continue;
            mem[server[m]] += static_cast<double>(in.models[m].memBytes);
            eq[server[m]] += in.models[m].isProducer() ? 1.0 : -1.0;
        }
        return *std::max_element(mem.begin(), mem.end()) +
               static_cast<double>(in.gpuMemBytes) *
                   *std::max_element(eq.begin(), eq.end());
    };
    for (std::size_t m = 0; m < server.size(); ++m) {
        if (server[m] >= 0)
            continue;
        int best = -1;
        double bestObj = 0.0;
        for (std::size_t s = 0; s < in.numServers; ++s) {
            if (load[s] >= in.capacity(s))
                continue;
            server[m] = static_cast<int>(s);
            double obj = partialObjective();
            if (best < 0 || obj < bestObj) {
                best = static_cast<int>(s);
                bestObj = obj;
            }
        }
        if (best < 0) {
            ADD_FAILURE() << "a feasible instance left no room";
            return std::nan("");
        }
        server[m] = best;
        ++load[best];
    }
    return evaluateObjective(in, server);
}

/** Cluster state the way the cluster model keeps it. */
struct ChurnState
{
    /** Every model ever seen, stable indices, with lost GPUs. */
    PlacementInput cluster;
    /** server[m], -1 once departed. */
    std::vector<int> assignment;
    opt::MilpOptions milp;
    std::size_t moved = 0;
    /** Each event's placement, for run-to-run comparison. */
    std::vector<std::vector<int>> history;

    /**
     * Re-place the live models (and @p arrival). @return false when
     * infeasible, leaving the assignment unchanged.
     */
    bool
    replace(std::size_t arrival)
    {
        PlacementInput live = cluster;
        live.models.clear();
        std::vector<std::size_t> stable;
        std::vector<int> prior;
        for (std::size_t m = 0; m < cluster.models.size(); ++m) {
            if (assignment[m] < 0 && m != arrival)
                continue;
            live.models.push_back(cluster.models[m]);
            stable.push_back(m);
            prior.push_back(assignment[m]);
        }
        if (live.models.empty())
            return true;
        Placement p = AquaPlacer(milp).place(live, prior);
        if (!p.valid())
            return false;
        std::vector<std::size_t> load(live.numServers, 0);
        for (int s : p.server)
            ++load[static_cast<std::size_t>(s)];
        for (std::size_t s = 0; s < live.numServers; ++s)
            EXPECT_LE(load[s], live.capacity(s)) << "server " << s;

        std::size_t forced = 0;
        double completed = completionObjective(live, prior, &forced);
        std::size_t movedNow = 0;
        for (std::size_t i = 0; i < stable.size(); ++i) {
            movedNow += prior[i] >= 0 && prior[i] != p.server[i];
            assignment[stable[i]] = p.server[i];
        }
        EXPECT_LE(p.objective, completed);
        // Beyond the models a failed GPU pushed off, nothing moves
        // without a strictly better objective.
        if (!(p.objective < completed)) {
            EXPECT_LE(movedNow, forced);
        }
        moved += movedNow;
        history.push_back(assignment);
        return true;
    }

    double
    objective() const
    {
        PlacementInput live = cluster;
        live.models.clear();
        std::vector<int> server;
        for (std::size_t m = 0; m < cluster.models.size(); ++m) {
            if (assignment[m] < 0)
                continue;
            live.models.push_back(cluster.models[m]);
            server.push_back(assignment[m]);
        }
        return server.empty() ? 0.0 : evaluateObjective(live, server);
    }
};

/** What one seeded churn sequence did on both paths. */
struct ChurnOutcome
{
    ChurnState fresh;
    double referenceObjective = 0.0;
    std::size_t referenceMoved = 0;
};

ChurnOutcome
runChurn(std::uint64_t seed)
{
    Random rng(seed);
    PlacementInput in = randomInstance(rng);
    RepairConfig rc;
    IncrementalPlacer ref(in, rc);

    ChurnOutcome out;
    ChurnState &st = out.fresh;
    st.cluster = in;
    st.cluster.lostGpus.assign(in.numServers, 0);
    st.milp.maxNodes = rc.solveMaxNodes;
    st.assignment = AquaPlacer(st.milp).place(in).server;
    EXPECT_EQ(st.assignment, ref.assignment()) << "initial solve";

    for (int step = 0; step < 16; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        std::vector<int> refBefore = ref.assignment();
        std::vector<std::size_t> live;
        std::size_t slots = 0;
        for (std::size_t m = 0; m < st.assignment.size(); ++m)
            if (st.assignment[m] >= 0)
                live.push_back(m);
        for (std::size_t s = 0; s < in.numServers; ++s)
            slots += st.cluster.capacity(s);

        double roll = rng.uniform();
        if (roll < 0.4) {
            ModelToPlace m = randomModel(rng, step);
            bool refOk = ref.onArrival(m).kind !=
                         RepairOutcome::Kind::Infeasible;
            st.cluster.models.push_back(m);
            st.assignment.push_back(-1);
            bool ok = st.replace(st.assignment.size() - 1);
            if (!ok) {
                st.cluster.models.pop_back();
                st.assignment.pop_back();
            }
            EXPECT_EQ(ok, refOk);
        } else if (roll < 0.75) {
            if (live.empty())
                continue;
            std::size_t m = live[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1))];
            ref.onDeparture(m);
            st.assignment[m] = -1;
            EXPECT_TRUE(st.replace(static_cast<std::size_t>(-1)));
        } else {
            // Only failures both paths can absorb: a server with a
            // GPU left, and a spare slot somewhere in the cluster.
            auto srv = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(in.numServers) - 1));
            if (st.cluster.capacity(srv) == 0 || live.size() >= slots)
                continue;
            EXPECT_NE(ref.onGpuFailure(static_cast<int>(srv)).kind,
                      RepairOutcome::Kind::Infeasible);
            ++st.cluster.lostGpus[srv];
            EXPECT_TRUE(st.replace(static_cast<std::size_t>(-1)));
        }

        for (std::size_t m = 0; m < refBefore.size(); ++m)
            out.referenceMoved += refBefore[m] >= 0 &&
                                  ref.assignment()[m] >= 0 &&
                                  refBefore[m] != ref.assignment()[m];
        // Both paths see the same live set and the same capacities.
        EXPECT_EQ(st.assignment.size(), ref.assignment().size());
        for (std::size_t m = 0; m < st.assignment.size(); ++m)
            EXPECT_EQ(st.assignment[m] >= 0, ref.live(m)) << "model " << m;
        for (std::size_t s = 0; s < in.numServers; ++s)
            EXPECT_EQ(st.cluster.capacity(s),
                      ref.capacity(static_cast<int>(s)));
    }
    out.referenceObjective = ref.objective();
    return out;
}

} // anonymous namespace

class ChurnReplacement : public ::testing::TestWithParam<int>
{
};

TEST_P(ChurnReplacement, NoWorseThanIncrementalReference)
{
    ChurnOutcome a = runChurn(static_cast<std::uint64_t>(GetParam()));
    EXPECT_LE(a.fresh.objective(), a.referenceObjective);
    // Total models moved is not compared: on these small, tight
    // instances the reference keeps a drifted placement that is within
    // its quality slack, while every strict gain here costs moves.

    ChurnOutcome b = runChurn(static_cast<std::uint64_t>(GetParam()));
    EXPECT_EQ(a.fresh.history, b.fresh.history);
    EXPECT_EQ(a.fresh.moved, b.fresh.moved);
    EXPECT_EQ(a.referenceMoved, b.referenceMoved);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnReplacement,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 21, 34,
                                           55));
