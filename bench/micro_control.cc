/**
 * @file
 * Micro-benchmarks (google-benchmark) of the AQUA control plane and
 * the optimization substrate: coordinator REST round trips, simplex
 * solves, and small placements. The paper stresses that AQUA-LIB's
 * overheads stay low because coordinator calls are infrequent; this
 * pins down what one call costs in-process.
 */

#include <benchmark/benchmark.h>

#include "aqua/coordinator.hh"
#include "aqua/rest.hh"
#include "exp/experiments.hh"
#include "json/json.hh"
#include "opt/lp.hh"
#include "opt/milp.hh"
#include "placer/placer.hh"

using namespace aqua;

namespace {

void
BM_CoordinatorAllocateFree(benchmark::State &state)
{
    core::Coordinator coord;
    core::CoordinatorRestService service(coord);
    coord.assignProducer(0, 1);
    coord.lease(1, std::uint64_t(60) << 30);
    for (auto _ : state) {
        json::Value req;
        req["gpu"] = 0;
        req["bytes"] = std::int64_t(1) << 30;
        core::RestResponse resp =
            service.router().dispatch("POST /allocate", req);
        json::Value freeReq;
        freeReq["tensor"] = resp.body.getInt("tensor", 0);
        service.router().dispatch("POST /free", freeReq);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoordinatorAllocateFree);

void
BM_RestJsonRoundTrip(benchmark::State &state)
{
    core::Coordinator coord;
    core::CoordinatorRestService service(coord);
    coord.lease(1, std::uint64_t(60) << 30);
    const std::string body = "{\"gpu\": 1, \"bytes\": 1073741824}";
    for (auto _ : state) {
        core::RestResponse resp =
            service.router().dispatchRaw("POST /lease", body);
        benchmark::DoNotOptimize(resp.ok());
    }
}
BENCHMARK(BM_RestJsonRoundTrip);

void
BM_SimplexSolve(benchmark::State &state)
{
    // A 20-var, 30-row transportation-style LP.
    for (auto _ : state) {
        opt::LinearProgram lp;
        std::vector<int> vars;
        for (int i = 0; i < 20; ++i)
            vars.push_back(lp.addVar(0.0, 10.0, (i % 7) - 3.0));
        for (int r = 0; r < 30; ++r) {
            std::vector<std::pair<int, double>> row;
            for (int i = 0; i < 20; ++i) {
                if ((i + r) % 3 == 0)
                    row.emplace_back(vars[i], 1.0 + (i % 5));
            }
            lp.addRow(std::move(row), opt::Relation::LessEq,
                      40.0 + r);
        }
        opt::LpResult res = opt::solveLp(lp);
        benchmark::DoNotOptimize(res.objective);
    }
}
BENCHMARK(BM_SimplexSolve);

void
BM_PlacerSmallCluster(benchmark::State &state)
{
    placer::PlacementInput input =
        exp::makeClusterInput(4, 2, "balanced");
    for (auto _ : state) {
        placer::AquaPlacer placer;
        placer::Placement p = placer.place(input);
        benchmark::DoNotOptimize(p.objective);
    }
}
BENCHMARK(BM_PlacerSmallCluster);

void
BM_PlacerNodeBudget(benchmark::State &state)
{
    // The repository benchmark's cluster placement: the 8x2 instance
    // under a 3,000-node budget, so LP host time reads per node.
    placer::PlacementInput input =
        exp::makeClusterInput(8, 2, "balanced", 2);
    opt::MilpOptions options;
    options.maxNodes = 3000;
    placer::Placement p;
    for (auto _ : state) {
        p = placer::AquaPlacer(options).place(input);
        benchmark::DoNotOptimize(p.objective);
    }
    state.counters["nodes"] = static_cast<double>(p.nodesExplored);
    state.counters["lp_iterations"] =
        static_cast<double>(p.lpIterations);
}
BENCHMARK(BM_PlacerNodeBudget)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
