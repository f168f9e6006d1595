/**
 * @file
 * Ablation: cross-server prefix federation over the inter-server
 * fabric.
 *
 * N servers (one consumer engine each) serve traffic opening with the
 * same hot preamble. Siloed per-server registries re-prefill the
 * preamble once per server *and* can never share chatbot history that
 * hops servers; federation advertises each server's home chains
 * through the directory layer so a consumer streams the KV over the
 * fabric instead — when the stream-vs-recompute cost model says the
 * wire beats the roofline. Three cells:
 *
 *  - on/off: single-shot shared-preamble trace plus a chatbot whose
 *    turns hop servers, federation off vs on;
 *  - cost model: wire degradation sweep; decisions must flip from
 *    stream to recompute as the fabric sickens, with nothing stuck
 *    either way;
 *  - chaos: the origin server's home GPU is killed and the fabric
 *    degraded mid-run; every request completes and the output digest
 *    matches the fault-free twin and the federation-disabled twin
 *    bit for bit.
 *
 * Results go to BENCH_federation.json. `--smoke` shrinks every cell.
 */

#include <cstring>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "trace/trace.hh"

using namespace aqua;

namespace {

json::Object
cellJson(const exp::FederationRunResult &r)
{
    stats::Summary rct;
    for (const auto &m : r.metrics) {
        if (m.finished())
            rct.add(m.rctSec());
    }
    json::Object o;
    o["finished"] = static_cast<std::int64_t>(rct.count());
    o["unfinished"] = static_cast<std::int64_t>(r.unfinished);
    o["rct_p50_sec"] = rct.median();
    o["rct_p95_sec"] = rct.p95();
    o["tokens_per_sec"] = r.tokensPerSec;
    o["aggregate_hit_rate"] = r.aggregateHitRate;
    o["prompt_tokens"] = static_cast<std::int64_t>(r.promptTokens);
    o["tail_tokens"] = static_cast<std::int64_t>(r.tailTokens);
    o["cached_tokens"] = static_cast<std::int64_t>(r.prefix.cachedTokens);
    o["hit_tokens_local"] =
        static_cast<std::int64_t>(r.prefix.hitTokensLocal);
    o["hit_tokens_remote_peer"] =
        static_cast<std::int64_t>(r.prefix.hitTokensRemote);
    o["hit_tokens_dram"] =
        static_cast<std::int64_t>(r.prefix.hitTokensDram);
    o["hit_tokens_remote_server"] =
        static_cast<std::int64_t>(r.prefix.hitTokensRemoteServer);
    o["sig_mismatches"] = static_cast<std::int64_t>(r.prefix.sigMismatches);
    o["cluster_sig_mismatches"] =
        static_cast<std::int64_t>(r.prefix.clusterSigMismatches);
    o["fed_hits"] = static_cast<std::int64_t>(r.prefix.fedHits);
    o["fed_misses"] = static_cast<std::int64_t>(r.prefix.fedMisses);
    o["fed_stream_decisions"] =
        static_cast<std::int64_t>(r.prefix.fedStreamDecisions);
    o["fed_recompute_decisions"] =
        static_cast<std::int64_t>(r.prefix.fedRecomputeDecisions);
    o["fed_fetch_refusals"] =
        static_cast<std::int64_t>(r.prefix.fedFetchRefusals);
    o["fed_streams_completed"] =
        static_cast<std::int64_t>(r.prefix.fedStreamsCompleted);
    o["fed_streams_invalidated"] =
        static_cast<std::int64_t>(r.prefix.fedStreamsInvalidated);
    o["fed_stream_bytes"] =
        static_cast<std::int64_t>(r.prefix.fedStreamBytes);
    o["dir_adverts_published"] =
        static_cast<std::int64_t>(r.directory.advertsPublished);
    o["dir_tombstones"] = static_cast<std::int64_t>(r.directory.tombstones);
    o["dir_adverts_applied"] =
        static_cast<std::int64_t>(r.directory.advertsApplied);
    o["dir_adverts_dropped"] =
        static_cast<std::int64_t>(r.directory.advertsDropped);
    o["dir_anti_entropy_rounds"] =
        static_cast<std::int64_t>(r.directory.antiEntropyRounds);
    o["dir_fetch_grants"] =
        static_cast<std::int64_t>(r.directory.fetchGrants);
    o["dir_fetch_cap_rejects"] =
        static_cast<std::int64_t>(r.directory.fetchCapRejects);
    o["dir_fetch_validated"] =
        static_cast<std::int64_t>(r.directory.fetchValidated);
    o["dir_fetch_invalidated"] =
        static_cast<std::int64_t>(r.directory.fetchInvalidated);
    o["fabric_transfers"] =
        static_cast<std::int64_t>(r.fabric.transfers);
    o["fabric_bytes_moved"] =
        static_cast<std::int64_t>(r.fabric.bytesMoved);
    o["fabric_queue_ticks"] =
        static_cast<std::int64_t>(r.fabric.queueTicks);
    o["output_digest"] = static_cast<std::int64_t>(r.outputDigest);
    return o;
}

/** Preamble tokens re-prefilled from scratch across the cluster:
 *  prompt minus the unique per-request tails minus everything served
 *  from cache (local, remote-peer or streamed). */
std::uint64_t
preambleColdTokens(const exp::FederationRunResult &r)
{
    std::uint64_t preamble = r.promptTokens - r.tailTokens;
    std::uint64_t cached = r.prefix.cachedTokens;
    return preamble > cached ? preamble - cached : 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("Cross-server prefix federation",
                  "stream a remote server's prefix KV over the "
                  "fabric, or re-prefill when the wire loses");

    exp::FederationRunConfig base;
    if (smoke) {
        base.numRequests = 24;
        base.maxSimSeconds = 3000.0;
    }

    // Cell 1: single-shot shared preamble, federation off vs on.
    exp::FederationRunConfig offCfg = base;
    offCfg.federation = false;
    exp::FederationRunResult off = exp::runFederation(offCfg);
    exp::FederationRunResult on = exp::runFederation(base);
    std::printf("single-shot: hit rate %.3f -> %.3f, preamble cold "
                "tokens %llu -> %llu (budget %llu), streamed tokens "
                "%llu\n",
                off.aggregateHitRate, on.aggregateHitRate,
                static_cast<unsigned long long>(preambleColdTokens(off)),
                static_cast<unsigned long long>(preambleColdTokens(on)),
                static_cast<unsigned long long>(
                    std::uint64_t(base.servers) * base.prefixTokens),
                static_cast<unsigned long long>(
                    on.prefix.hitTokensRemoteServer));

    // Cell 1b: chatbot whose turns hop servers — the re-sent history
    // is only reachable through federation.
    exp::FederationRunConfig chatCfg = base;
    chatCfg.chatbot = true;
    chatCfg.prefixTokens = 512;
    chatCfg.users = smoke ? 6 : 9;
    chatCfg.turns = smoke ? 2 : 3;
    exp::FederationRunConfig chatOffCfg = chatCfg;
    chatOffCfg.federation = false;
    exp::FederationRunResult chatOff = exp::runFederation(chatOffCfg);
    exp::FederationRunResult chatOn = exp::runFederation(chatCfg);
    std::printf("chatbot (turns hop servers): hit rate %.3f -> %.3f, "
                "remote-server hit tokens %llu, streams %llu\n",
                chatOff.aggregateHitRate, chatOn.aggregateHitRate,
                static_cast<unsigned long long>(
                    chatOn.prefix.hitTokensRemoteServer),
                static_cast<unsigned long long>(
                    chatOn.prefix.fedStreamsCompleted));

    // Cell 2: the stream-vs-recompute cost model against a sickening
    // wire. As degradation deepens the streamed-copy estimate crosses
    // the local re-prefill roofline and decisions must flip.
    std::vector<double> degr =
        smoke ? std::vector<double>{1.0, 0.01}
              : std::vector<double>{1.0, 0.25, 0.05, 0.01};
    stats::Table t({"degradation", "stream", "recompute", "streamed_tok",
                    "hit_rate", "unfinished"});
    json::Object sweepJson;
    exp::FederationRunResult healthiest, sickest;
    for (double d : degr) {
        exp::FederationRunConfig cfg = base;
        cfg.fabricDegradation = d;
        exp::FederationRunResult r = exp::runFederation(cfg);
        t.newRow()
            .cell(d, 2)
            .cell(r.prefix.fedStreamDecisions)
            .cell(r.prefix.fedRecomputeDecisions)
            .cell(r.prefix.hitTokensRemoteServer)
            .cell(r.aggregateHitRate, 3)
            .cell(r.unfinished);
        char key[32];
        std::snprintf(key, sizeof key, "degr_%.2f", d);
        sweepJson[key] = cellJson(r);
        if (d == degr.front())
            healthiest = std::move(r);
        else if (d == degr.back())
            sickest = std::move(r);
    }
    bench::show(t);

    // Cell 3: chaos — kill the origin server's home GPU and degrade
    // the fabric mid-run; then the fault-free twin, which must be
    // output-identical to the federation-disabled twin.
    trace::TraceLog chaosLog;
    exp::FederationRunConfig chaosCfg = base;
    chaosCfg.chaos = true;
    chaosCfg.ratePerSec = 2.0;
    chaosCfg.numRequests = smoke ? 40 : 80;
    chaosCfg.traceLog = &chaosLog;
    exp::FederationRunResult chaosR = exp::runFederation(chaosCfg);
    exp::FederationRunConfig twinCfg = chaosCfg;
    twinCfg.chaos = false;
    twinCfg.traceLog = nullptr;
    exp::FederationRunResult twin = exp::runFederation(twinCfg);
    exp::FederationRunConfig twinOffCfg = twinCfg;
    twinOffCfg.federation = false;
    exp::FederationRunResult twinOff = exp::runFederation(twinOffCfg);
    std::printf("chaos (home GPU killed, fabric degraded): unfinished "
                "%llu, streams %llu, invalidated %llu, tombstones "
                "%llu, digest %016llx (twin %016llx, fed-off "
                "%016llx)\n",
                static_cast<unsigned long long>(chaosR.unfinished),
                static_cast<unsigned long long>(
                    chaosR.prefix.fedStreamsCompleted),
                static_cast<unsigned long long>(
                    chaosR.prefix.fedStreamsInvalidated),
                static_cast<unsigned long long>(
                    chaosR.directory.tombstones),
                static_cast<unsigned long long>(chaosR.outputDigest),
                static_cast<unsigned long long>(twin.outputDigest),
                static_cast<unsigned long long>(twinOff.outputDigest));

    // Acceptance.
    //
    // (a) Federation makes the hot preamble prefill at most once per
    //     server (one partial tail block of slack each), streams the
    //     rest, and improves the cross-server chatbot hit rate.
    std::uint64_t preambleBudget =
        std::uint64_t(base.servers) * (base.prefixTokens + 16);
    bool okOnce = on.prefix.hitTokensRemoteServer > 0 &&
                  preambleColdTokens(on) <= preambleBudget &&
                  on.aggregateHitRate > off.aggregateHitRate;
    bool okChat = chatOn.aggregateHitRate > chatOff.aggregateHitRate &&
                  chatOn.prefix.hitTokensRemoteServer > 0;
    // (b) The cost model streams on a healthy wire, recomputes on a
    //     dead one, and nothing is left unfinished anywhere.
    bool okCost = healthiest.prefix.fedStreamDecisions > 0 &&
                  healthiest.prefix.fedRecomputeDecisions == 0 &&
                  sickest.prefix.fedRecomputeDecisions > 0 &&
                  sickest.prefix.fedStreamDecisions == 0;
    bool okNothingStuck =
        off.unfinished == 0 && on.unfinished == 0 &&
        chatOff.unfinished == 0 && chatOn.unfinished == 0 &&
        healthiest.unfinished == 0 && sickest.unfinished == 0 &&
        chaosR.unfinished == 0 && twin.unfinished == 0 &&
        twinOff.unfinished == 0;
    // (c) Chaos completes every request with clean byte identity, and
    //     the output digest is bit-identical across the chaos run, the
    //     fault-free twin and the federation-disabled twin.
    bool okIdentity = true;
    for (const exp::FederationRunResult *r :
         {&off, &on, &chatOff, &chatOn, &healthiest, &sickest, &chaosR,
          &twin, &twinOff}) {
        okIdentity = okIdentity && r->prefix.sigMismatches == 0 &&
                     r->prefix.clusterSigMismatches == 0;
    }
    bool okTwin = chaosR.outputDigest == twin.outputDigest &&
                  twin.outputDigest == twinOff.outputDigest;
    std::printf("acceptance: once_per_server %s, chatbot_gain %s, "
                "cost_flip %s, nothing_stuck %s, byte_identity %s, "
                "twin_identical %s\n",
                okOnce ? "PASS" : "FAIL", okChat ? "PASS" : "FAIL",
                okCost ? "PASS" : "FAIL",
                okNothingStuck ? "PASS" : "FAIL",
                okIdentity ? "PASS" : "FAIL",
                okTwin ? "PASS" : "FAIL");

    bench::JsonReporter report("federation");
    report.set("smoke", smoke)
        .set("servers", static_cast<std::int64_t>(base.servers))
        .set("num_requests",
             static_cast<std::int64_t>(base.numRequests))
        .set("prefix_tokens", base.prefixTokens);
    report.set("single_shot_baseline", cellJson(off));
    report.set("single_shot_federation", cellJson(on));
    report.set("chatbot_baseline", cellJson(chatOff));
    report.set("chatbot_federation", cellJson(chatOn));
    report.set("degradation_sweep", std::move(sweepJson));
    report.set("chaos", cellJson(chaosR));
    report.set("chaos_twin", cellJson(twin));
    report.set("chaos_twin_baseline", cellJson(twinOff));
    json::Object accept;
    accept["preamble_once_per_server"] = okOnce;
    accept["chatbot_hit_rate_gain"] = okChat;
    accept["cost_model_flips"] = okCost;
    accept["nothing_stuck"] = okNothingStuck;
    accept["byte_identity"] = okIdentity;
    accept["twin_identical"] = okTwin;
    report.set("acceptance", std::move(accept));
    report.write();

    return (okOnce && okChat && okCost && okNothingStuck &&
            okIdentity && okTwin)
               ? 0
               : 1;
}
