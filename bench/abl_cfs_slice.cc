/**
 * @file
 * Ablation: CFS slice length (the k of Fig. 6).
 *
 * Short slices context-switch often (responsive, high paging cost);
 * long slices amortize paging but approach batch scheduling. The
 * sweep shows the trade-off under both offload paths and why AQUA
 * makes short, responsive slices affordable (§5).
 */

#include "bench/bench_util.hh"
#include "exp/experiments.hh"

using namespace aqua;

int
main()
{
    bench::banner("Ablation: CFS slice length",
                  "Codellama-34B at 5 req/s, TTFT/RCT vs slice "
                  "tokens");
    stats::Table table({"slice_tokens", "system", "ttft_p95_s",
                        "rct_p50_s", "swap_outs"});
    for (std::uint32_t slice : {1, 5, 20, 80}) {
        for (exp::ServeMode mode : {exp::ServeMode::CfsDram,
                                    exp::ServeMode::CfsAqua}) {
            exp::CfsExperimentConfig cfg;
            cfg.mode = mode;
            cfg.ratePerSec = 5.0;
            cfg.sliceTokens = slice;
            exp::CfsExperimentResult r = exp::runCfsExperiment(cfg);
            stats::Summary ttft = bench::ttftSummary(r.metrics);
            stats::Summary rct = bench::rctSummary(r.metrics);
            table.newRow()
                .cell(std::uint64_t(slice))
                .cell(exp::serveModeName(mode))
                .cell(ttft.p95(), 2)
                .cell(rct.median(), 2)
                .cell(r.swapOuts);
        }
    }
    bench::show(table);
    std::printf("takeaway: over PCIe, shrinking the slice buys "
                "responsiveness at a steep RCT cost; over AQUA the "
                "same slice costs far less, so short slices (the "
                "paper uses 5 tokens) become practical.\n");
    return 0;
}
