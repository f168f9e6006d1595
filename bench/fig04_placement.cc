/**
 * @file
 * Figure 4 + Algorithm 1: why placement matters, and what
 * AQUA-PLACER computes.
 *
 * Two 2-GPU servers host two vision models and two LLMs. Placing
 * both LLMs on the same server (Fig. 4a) leaves their deficits
 * unserved while the other server wastes memory; AQUA-PLACER
 * co-locates each LLM with a vision model (Fig. 4b) so every
 * consumer has a producer on its NVLink domain, then pairs them by
 * stable matching.
 */

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "hw/gpu_spec.hh"
#include "placer/placer.hh"

using namespace aqua;

namespace {

void
describe(const char *title, const placer::PlacementInput &input,
         const std::vector<int> &assignment)
{
    std::printf("%s (objective %.1f GB):\n", title,
                placer::evaluateObjective(input, assignment) / 1e9);
    for (std::size_t s = 0; s < input.numServers; ++s) {
        std::printf("  server %zu:", s);
        for (std::size_t m = 0; m < input.models.size(); ++m) {
            if (assignment[m] == static_cast<int>(s)) {
                std::printf(" %s(%+.0fGB)",
                            input.models[m].name.c_str(),
                            static_cast<double>(
                                input.models[m].memBytes) / 1e9);
            }
        }
        std::printf("\n");
    }
}

} // anonymous namespace

int
main()
{
    bench::banner("Figure 4 / Algorithm 1",
                  "model placement with AQUA-PLACER");

    placer::PlacementInput input;
    input.numServers = 2;
    input.gpusPerServer = 2;
    input.gpuMemBytes = hw::a100_80g().hbmBytes;
    for (const char *name : {"StableDiffusion", "Kandinsky"}) {
        placer::ModelToPlace m;
        m.name = name;
        m.memBytes = exp::modelMemoryRequirement(name, true);
        input.models.push_back(m);
    }
    for (const char *name : {"OPT-30B", "Codellama-34B"}) {
        placer::ModelToPlace m;
        m.name = name;
        m.memBytes = exp::modelMemoryRequirement(name, false);
        input.models.push_back(m);
    }

    // Fig. 4a: the bad segregated placement.
    std::vector<int> segregated = {0, 0, 1, 1};
    describe("Fig. 4a segregated placement", input, segregated);

    // Fig. 4b: AQUA-PLACER's colocation.
    placer::AquaPlacer placer;
    placer::Placement placement = placer.place(input);
    describe("Fig. 4b AQUA-PLACER placement", input,
             placement.server);
    std::printf("  optimal: %s, nodes: %llu, LP iterations: %llu\n",
                placement.optimal ? "yes" : "no",
                static_cast<unsigned long long>(
                    placement.nodesExplored),
                static_cast<unsigned long long>(
                    placement.lpIterations));
    for (const placer::Pairing &p : placement.pairs) {
        std::printf("  pair on server %d: consumer %s <- producer "
                    "%s\n", p.server,
                    input.models[p.consumerModel].name.c_str(),
                    input.models[p.producerModel].name.c_str());
    }
    std::printf("paper: every memory-bound model ends up next to a "
                "memory-rich one; one producer per consumer.\n");
    return 0;
}
