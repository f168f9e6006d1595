/**
 * @file
 * Cluster placement example: AQUA-PLACER over the paper's §6.1
 * cluster (8 servers x 2 GPUs, 16 models sampled with replacement),
 * for both the balanced and the LLM-heavy splits.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/cluster_placement
 */

#include <cstdio>

#include "exp/experiments.hh"
#include "placer/placer.hh"

using namespace aqua;

namespace {

void
place(const char *split)
{
    placer::PlacementInput input =
        exp::makeClusterInput(8, 2, split, /*seed=*/2026);
    placer::Placement greedy = placer::greedyPlace(input);
    // The node budget alone ends the search, so the output is the
    // same on any host.
    opt::MilpOptions milpOpt;
    milpOpt.maxNodes = 20000;
    placer::Placement best = placer::AquaPlacer(milpOpt).place(input);

    std::printf("--- split: %s ---\n", split);
    std::printf("greedy objective: %.1f GB | MILP objective: %.1f GB"
                " (%s, %llu nodes, %llu LP iterations)\n",
                greedy.objective / 1e9, best.objective / 1e9,
                best.optimal ? "optimal" : "limit",
                static_cast<unsigned long long>(best.nodesExplored),
                static_cast<unsigned long long>(best.lpIterations));
    for (std::size_t s = 0; s < input.numServers; ++s) {
        std::printf("  server %zu:", s);
        for (std::size_t m = 0; m < input.models.size(); ++m) {
            if (best.server[m] == static_cast<int>(s)) {
                std::printf(" %s(%+.0f)",
                            input.models[m].name.c_str(),
                            static_cast<double>(
                                input.models[m].memBytes) / 1e9);
            }
        }
        std::printf("\n");
    }
    std::printf("  producer->consumer pairs:\n");
    for (const placer::Pairing &p : best.pairs) {
        std::printf("    server %d: %s supplies %s\n", p.server,
                    input.models[p.producerModel].name.c_str(),
                    input.models[p.consumerModel].name.c_str());
    }
    std::printf("\n");
}

} // anonymous namespace

int
main()
{
    std::printf("AQUA-PLACER (Algorithm 1 as a MILP on our own "
                "branch-and-bound)\nover a 16-GPU cluster of 2-GPU "
                "servers.\n\n");
    place("balanced");
    place("llm-heavy");
    std::printf("Every consumer that can be paired sits on the same "
                "NVLink domain as its producer; mem_s and the "
                "producer/consumer count are balanced per server "
                "(Eq. 3-5).\n");
    return 0;
}
