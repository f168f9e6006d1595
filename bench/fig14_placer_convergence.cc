/**
 * @file
 * Figure 14 + §A.1: AQUA-PLACER convergence time.
 *
 * Clusters of 8-GPU servers from 16 to 128 GPUs, filled either with
 * a mixed-modality split (1/3 image, 1/3 audio, 1/3 LLM consumers)
 * or a 50/50 LLM-producer/consumer split. The paper's Gurobi run
 * converges in < 1 s for the 50/50 split and up to ~45 s for the
 * mixed input, because more distinct producer types expand the
 * matching search space. Our branch-and-bound shows the same
 * ordering.
 *
 * Convergence is measured in branch-and-bound nodes and simplex
 * iterations under a fixed node budget, so the table is the same on
 * any host. Host solve times go to stderr for reference, so stdout
 * stays byte-comparable against the committed baseline.
 */

#include <chrono>
#include <cstdio>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "placer/placer.hh"

using namespace aqua;

int
main()
{
    bench::banner("Figure 14", "AQUA-PLACER convergence (nodes, LP "
                               "iterations) vs cluster size (8-GPU "
                               "servers)");

    stats::Table table({"gpus", "split", "nodes", "lp_iters",
                        "optimal", "objective_gb", "greedy_gb"});
    std::vector<std::string> hostTimes;
    for (std::size_t gpus : {16, 32, 64, 128}) {
        for (const char *split : {"llm-heavy", "balanced"}) {
            placer::PlacementInput input =
                exp::makeClusterInput(gpus / 8, 8, split);
            opt::MilpOptions milpOpt;
            milpOpt.maxNodes = 20000;
            placer::AquaPlacer placer(milpOpt);
            placer::Placement greedy = placer::greedyPlace(input);
            auto t0 = std::chrono::steady_clock::now();
            placer::Placement result = placer.place(input);
            std::chrono::duration<double> host =
                std::chrono::steady_clock::now() - t0;
            table.newRow()
                .cell(std::uint64_t(gpus))
                .cell(split)
                .cell(result.nodesExplored)
                .cell(result.lpIterations)
                .cell(result.optimal ? "yes" : "limit")
                .cell(result.objective / 1e9, 1)
                .cell(greedy.objective / 1e9, 1);
            char line[96];
            std::snprintf(line, sizeof(line), "  %3zu GPUs %-9s %.3f s",
                          gpus, split, host.count());
            hostTimes.push_back(line);
        }
    }
    bench::show(table);
    std::fprintf(stderr, "host solve time (varies with the host; not "
                         "a result):\n");
    for (const std::string &line : hostTimes)
        std::fprintf(stderr, "%s\n", line.c_str());
    std::printf("paper: < 1 s for the 50/50 LLM split; up to ~45 s "
                "for the mixed-modality input (more producer types "
                "=> more matchings to test).\n");
    return 0;
}
