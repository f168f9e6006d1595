/**
 * @file
 * Figure 13: long-term responsiveness of a chatbot workload.
 *
 * 25 users converse with Codellama-34B (sharing a server with
 * Kandinsky) for 4 turns; each user re-issues a prompt after the
 * previous response returns, so the same burst repeats every turn
 * (the saw-tooth). CFS without AQUA inflates RCT ~1.5X; with AQUA
 * the worst-case overhead is ~20% and late-arriving requests match
 * vLLM — without AQUA the same users are starved every turn (§8).
 *
 * A fourth system adds copy-on-write prefix caching to the AQUA
 * configuration: follow-up turns re-send the conversation, so their
 * history prefills from cache instead of being recomputed.
 *
 * Writes BENCH_chatbot.json (per-mode RCT/TTFT percentiles plus the
 * prefix-cache counters) for CI artifact diffing. `--smoke` shrinks
 * the run for quick pipelines.
 */

#include <algorithm>
#include <cstring>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"

using namespace aqua;

namespace {

constexpr const char *kSystems[] = {"vllm", "cfs", "aqua", "aqua+apc"};

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("Figure 13", "25-user, 4-turn chatbot on "
                               "Codellama-34B + Kandinsky");

    std::uint32_t users = smoke ? 8 : 25;
    std::uint32_t turns = smoke ? 2 : 4;

    std::vector<exp::ChatbotResult> results;
    for (exp::ServeMode mode : {exp::ServeMode::VllmBaseline,
                                exp::ServeMode::CfsDram,
                                exp::ServeMode::CfsAqua,
                                exp::ServeMode::CfsAqua}) {
        exp::ChatbotConfig cfg;
        cfg.mode = mode;
        cfg.users = users;
        cfg.turns = turns;
        if (results.size() == 3) {
            // The prefix-caching variant: a shared system prompt plus
            // cross-turn history reuse.
            cfg.prefixCache = true;
            cfg.systemPromptTokens = 256;
        }
        results.push_back(exp::runChatbot(cfg));
    }

    stats::Table perTurn({"turn", "vllm_rct_p50", "cfs_rct_p50",
                          "aqua_rct_p50", "apc_rct_p50",
                          "vllm_rct_max", "aqua_rct_max",
                          "apc_rct_max"});
    for (std::uint32_t turn = 0; turn < turns; ++turn) {
        std::vector<stats::Summary> s(4);
        for (std::size_t sys = 0; sys < 4; ++sys) {
            for (const auto &tm : results[sys].metrics) {
                if (tm.turn == turn && tm.metrics.finished())
                    s[sys].add(tm.metrics.rctSec());
            }
        }
        perTurn.newRow()
            .cell(std::uint64_t(turn))
            .cell(s[0].median(), 2)
            .cell(s[1].median(), 2)
            .cell(s[2].median(), 2)
            .cell(s[3].median(), 2)
            .cell(s[0].max(), 2)
            .cell(s[2].max(), 2)
            .cell(s[3].max(), 2);
    }
    bench::show(perTurn);

    stats::Summary all[4];
    for (std::size_t sys = 0; sys < 4; ++sys) {
        for (const auto &tm : results[sys].metrics) {
            if (tm.metrics.finished())
                all[sys].add(tm.metrics.rctSec());
        }
    }
    std::printf("overall RCT p95: vLLM %.2fs, CFS %.2fs (%.2fX), "
                "AQUA %.2fs (%.2fX), AQUA+APC %.2fs (%.2fX)\n",
                all[0].p95(), all[1].p95(),
                all[1].p95() / all[0].p95(), all[2].p95(),
                all[2].p95() / all[0].p95(), all[3].p95(),
                all[3].p95() / all[0].p95());
    std::printf("paper: CFS w/o AQUA costs ~1.5X RCT; AQUA's worst "
                "case is ~20%% and it matches vLLM for late "
                "requests.\n");

    const serve::PrefixIndexStats &pi = results[3].prefixIndex;
    const serve::PrefixCacheEngineStats &pc = results[3].prefix;
    std::printf("prefix cache (AQUA+APC): hit rate %.1f%%, %llu "
                "tokens prefilled from cache, %llu CoW forks, %llu "
                "sig mismatches\n",
                100.0 * pi.hitRate(),
                static_cast<unsigned long long>(pc.cachedTokens),
                static_cast<unsigned long long>(pc.cowForks),
                static_cast<unsigned long long>(pc.sigMismatches));
    std::printf("hit origin: %llu tokens local HBM, %llu remote "
                "peer, %llu host DRAM, %llu remote server\n",
                static_cast<unsigned long long>(pc.hitTokensLocal),
                static_cast<unsigned long long>(pc.hitTokensRemote),
                static_cast<unsigned long long>(pc.hitTokensDram),
                static_cast<unsigned long long>(
                    pc.hitTokensRemoteServer));

    bench::JsonReporter report("chatbot");
    report.set("users", users).set("turns", turns);
    json::Object systems;
    for (std::size_t sys = 0; sys < 4; ++sys) {
        json::Object o;
        o["rct_p50_sec"] = all[sys].median();
        o["rct_p95_sec"] = all[sys].p95();
        o["finished"] = static_cast<std::int64_t>(all[sys].count());
        o["tokens_per_sec"] = results[sys].tokensPerSec;
        o["peak_live_kv_bytes"] =
            static_cast<std::int64_t>(results[sys].peakLiveKvBytes);
        o["offload_write_bytes"] =
            static_cast<std::int64_t>(results[sys].offloadWriteBytes);
        systems[kSystems[sys]] = std::move(o);
    }
    report.set("systems", std::move(systems));
    json::Object prefix;
    prefix["hit_rate"] = pi.hitRate();
    prefix["hits"] = static_cast<std::int64_t>(pi.hits);
    prefix["misses"] = static_cast<std::int64_t>(pi.misses);
    prefix["partial_hits"] = static_cast<std::int64_t>(pi.partialHits);
    prefix["cached_tokens"] = static_cast<std::int64_t>(pc.cachedTokens);
    prefix["cow_forks"] = static_cast<std::int64_t>(pc.cowForks);
    prefix["dedup_saved_bytes"] =
        static_cast<std::int64_t>(pc.dedupSavedBytes);
    prefix["sig_mismatches"] =
        static_cast<std::int64_t>(pc.sigMismatches);
    prefix["hit_tokens_local"] =
        static_cast<std::int64_t>(pc.hitTokensLocal);
    prefix["hit_tokens_remote_peer"] =
        static_cast<std::int64_t>(pc.hitTokensRemote);
    prefix["hit_tokens_dram"] =
        static_cast<std::int64_t>(pc.hitTokensDram);
    prefix["hit_tokens_remote_server"] =
        static_cast<std::int64_t>(pc.hitTokensRemoteServer);
    report.set("prefix_cache", std::move(prefix));
    report.write();
    return 0;
}
