/**
 * @file
 * Figure 9 (and the Fig. 1 motivation): CFS responsiveness.
 *
 * Codellama-34B (memory consumer) shares a 2-GPU server with
 * Kandinsky (memory producer). Code-summarization requests arrive at
 * 2 and 5 req/s and are served by
 *   - vLLM (FCFS batching, DRAM offload),
 *   - vLLM + CFS (fair scheduling, still DRAM paging), and
 *   - AQUA (fair scheduling, context paged to the producer's HBM).
 *
 * The paper reports: CFS cuts TTFT ~4X; CFS without AQUA costs ~2X
 * in RCT; AQUA keeps the CFS TTFT while pulling RCT back down; vLLM's
 * TTFT jumps after ~20 requests when the GPU memory fills and
 * requests queue.
 */

#include "bench/bench_util.hh"
#include "exp/experiments.hh"

using namespace aqua;

namespace {

void
runRate(double rate)
{
    std::printf("--- request rate: %.0f req/s ---\n", rate);
    stats::Table summary({"system", "finished", "ttft_p50_s",
                          "ttft_p95_s", "rct_p50_s", "rct_p95_s",
                          "slo_2s", "swap_outs"});
    std::vector<exp::CfsExperimentResult> results;
    for (exp::ServeMode mode : {exp::ServeMode::VllmBaseline,
                                exp::ServeMode::CfsDram,
                                exp::ServeMode::CfsAqua}) {
        exp::CfsExperimentConfig cfg;
        cfg.mode = mode;
        cfg.ratePerSec = rate;
        exp::CfsExperimentResult r = exp::runCfsExperiment(cfg);
        stats::Summary ttft = bench::ttftSummary(r.metrics);
        stats::Summary rct = bench::rctSummary(r.metrics);
        summary.newRow()
            .cell(exp::serveModeName(mode))
            .cell(r.metrics.size())
            .cell(ttft.median(), 2)
            .cell(ttft.p95(), 2)
            .cell(rct.median(), 2)
            .cell(rct.p95(), 2)
            .cell(bench::sloAttainment(r.metrics, 2.0), 2)
            .cell(r.swapOuts);
        results.push_back(std::move(r));
    }
    bench::show(summary);

    // The per-request view (Fig. 9's x-axis): TTFT of every 10th
    // request in arrival order.
    stats::Table perReq({"request#", "vllm_ttft_s", "cfs_ttft_s",
                         "aqua_ttft_s"});
    std::size_t n = 0;
    for (const auto &r : results)
        n = std::max(n, r.metrics.size());
    auto at = [&](std::size_t sys, std::size_t idx) -> std::string {
        const auto &m = results[sys].metrics;
        for (const auto &metric : m) {
            if (metric.id == idx && metric.started()) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.2f",
                              metric.ttftSec());
                return buf;
            }
        }
        return "-";
    };
    for (std::size_t i = 0; i < 100; i += 10) {
        perReq.newRow()
            .cell(i)
            .cell(at(0, i))
            .cell(at(1, i))
            .cell(at(2, i));
    }
    bench::show(perReq);
}

} // anonymous namespace

int
main()
{
    bench::banner("Figure 9", "responsiveness with completely fair "
                              "scheduling (Codellama-34B + Kandinsky)");
    runRate(2.0);
    runRate(5.0);
    std::printf("paper: CFS improves TTFT ~4X; without AQUA its RCT "
                "is ~2X worse; vLLM TTFT jumps after ~20 requests.\n");
    return 0;
}
