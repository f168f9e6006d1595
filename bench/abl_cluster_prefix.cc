/**
 * @file
 * Ablation: the cluster prefix registry on an NVSwitch server where
 * 2-8 consumer engines serve traffic opening with the same hot
 * preamble.
 *
 * Without the registry every engine prefills and *retains* its own
 * copy of the preamble's KV, so resident preamble bytes grow with the
 * consumer count. With the registry exactly one engine (the chain's
 * home) keeps the copy and the others borrow or stream it over
 * NVLink, so residency stays near a single copy while the aggregate
 * hit rate holds. Three cells:
 *
 *  - consumer sweep: shared-preamble trace over {2, 4, 8} engines,
 *    registry off vs on;
 *  - chatbot: every conversation turn lands on a different engine, so
 *    the re-sent history is only reachable through the registry;
 *  - chaos: the preamble's home GPU is permanently killed mid-run;
 *    survivors must invalidate or re-home the chain with no
 *    byte-identity violations and no stuck sequences.
 *
 * Results go to BENCH_cluster_prefix.json. `--smoke` shrinks every
 * cell for quick pipelines.
 */

#include <cstring>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "trace/trace.hh"

using namespace aqua;

namespace {

json::Object
cellJson(const exp::ClusterPrefixResult &r)
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
    o["cached_tokens"] = static_cast<std::int64_t>(r.prefix.cachedTokens);
    o["resident_prefix_bytes"] =
        static_cast<std::int64_t>(r.residentPrefixBytes);
    o["single_copy_bytes"] =
        static_cast<std::int64_t>(r.singleCopyBytes);
    o["residency_factor"] = r.residencyFactor;
    o["registry_hits"] = static_cast<std::int64_t>(r.prefix.registryHits);
    o["registry_misses"] =
        static_cast<std::int64_t>(r.prefix.registryMisses);
    o["borrow_admissions"] =
        static_cast<std::int64_t>(r.prefix.borrowAdmissions);
    o["copy_admissions"] =
        static_cast<std::int64_t>(r.prefix.copyAdmissions);
    o["remote_copy_bytes"] =
        static_cast<std::int64_t>(r.prefix.remoteCopyBytes);
    o["remote_decode_read_bytes"] =
        static_cast<std::int64_t>(r.prefix.remoteDecodeReadBytes);
    o["remote_broken_chains"] =
        static_cast<std::int64_t>(r.prefix.remoteBrokenChains);
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
    o["reg_publishes"] = static_cast<std::int64_t>(r.registry.publishes);
    o["reg_replica_publishes"] =
        static_cast<std::int64_t>(r.registry.replicaPublishes);
    o["reg_promotions"] = static_cast<std::int64_t>(r.registry.promotions);
    o["reg_invalidations"] =
        static_cast<std::int64_t>(r.registry.invalidations);
    o["reg_broken_pins"] = static_cast<std::int64_t>(r.registry.brokenPins);
    o["active_pins"] = static_cast<std::int64_t>(r.activePins);
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("Cluster prefix registry",
                  "one resident shared-prefix KV copy per server, "
                  "served over NVLink");

    exp::ClusterPrefixConfig base;
    if (smoke) {
        base.numRequests = 32;
        base.maxSimSeconds = 3000.0;
    }

    // Cell 1: consumer sweep, registry off vs on.
    std::vector<std::size_t> sweep =
        smoke ? std::vector<std::size_t>{2, 4}
              : std::vector<std::size_t>{2, 4, 8};
    stats::Table t({"consumers", "mode", "residency_x", "agg_hit_rate",
                    "remote_mib", "tokens_per_sec", "unfinished"});
    json::Object sweepJson;
    exp::ClusterPrefixResult off4, on4;
    for (std::size_t consumers : sweep) {
        for (bool registry : {false, true}) {
            exp::ClusterPrefixConfig cfg = base;
            cfg.consumers = consumers;
            cfg.registry = registry;
            exp::ClusterPrefixResult r = exp::runClusterPrefix(cfg);
            t.newRow()
                .cell(std::uint64_t(consumers))
                .cell(registry ? "registry" : "per-engine")
                .cell(r.residencyFactor, 2)
                .cell(r.aggregateHitRate, 3)
                .cell(double(r.prefix.remoteCopyBytes +
                             r.prefix.remoteDecodeReadBytes) / (1 << 20), 1)
                .cell(r.tokensPerSec, 1)
                .cell(r.unfinished);
            std::string key = std::to_string(consumers) +
                (registry ? "_registry" : "_baseline");
            sweepJson[key] = cellJson(r);
            if (consumers == 4 && registry)
                on4 = std::move(r);
            else if (consumers == 4)
                off4 = std::move(r);
        }
    }
    bench::show(t);

    // Cell 2: chatbot with cross-engine turn routing.
    exp::ClusterPrefixConfig chatCfg = base;
    chatCfg.chatbot = true;
    chatCfg.consumers = 4;
    chatCfg.prefixTokens = 512;
    chatCfg.users = smoke ? 6 : 12;
    chatCfg.turns = smoke ? 2 : 3;
    exp::ClusterPrefixConfig chatOffCfg = chatCfg;
    chatOffCfg.registry = false;
    exp::ClusterPrefixResult chatOff = exp::runClusterPrefix(chatOffCfg);
    exp::ClusterPrefixResult chatOn = exp::runClusterPrefix(chatCfg);
    std::printf("chatbot (turns hop engines): hit rate %.3f -> %.3f, "
                "remote hit tokens %llu, borrow/copy %llu/%llu\n",
                chatOff.aggregateHitRate, chatOn.aggregateHitRate,
                static_cast<unsigned long long>(
                    chatOn.prefix.hitTokensRemote),
                static_cast<unsigned long long>(
                    chatOn.prefix.borrowAdmissions),
                static_cast<unsigned long long>(
                    chatOn.prefix.copyAdmissions));

    // Cell 3: donor-kill chaos against the home GPU.
    trace::TraceLog chaosLog;
    exp::ClusterPrefixConfig chaosCfg = base;
    chaosCfg.consumers = 4;
    chaosCfg.chaos = true;
    chaosCfg.ratePerSec = 2.0;
    chaosCfg.numRequests = smoke ? 60 : 120;
    // Let the whole preamble be borrowed in place: consumers decoding
    // against the home's copy when it dies exercise the lease-break
    // and recompute recovery paths, not just registry invalidation.
    chaosCfg.borrowMaxBlocks = 64;
    chaosCfg.traceLog = &chaosLog;
    exp::ClusterPrefixResult chaosR = exp::runClusterPrefix(chaosCfg);
    std::size_t unmatchedFaults =
        chaosLog.unmatchedPairs("fault_inject", "fault_recover",
                                "fault_id").size();
    std::printf("chaos (home GPU killed): unfinished %llu, broken "
                "chains %llu, broken pins %llu, promotions %llu, "
                "invalidations %llu, active pins %llu\n",
                static_cast<unsigned long long>(chaosR.unfinished),
                static_cast<unsigned long long>(
                    chaosR.prefix.remoteBrokenChains),
                static_cast<unsigned long long>(chaosR.registry.brokenPins),
                static_cast<unsigned long long>(chaosR.registry.promotions),
                static_cast<unsigned long long>(
                    chaosR.registry.invalidations),
                static_cast<unsigned long long>(chaosR.activePins));

    // Acceptance: at 4 consumers the hot preamble stays near one
    // resident copy (baseline keeps ~one per engine), the aggregate
    // hit rate does not regress vs per-engine caching, every cell is
    // byte-identical end to end, the chaos run leaves nothing stuck
    // and every lease drains. The chaos plan's single permanent
    // gpu_fail is the one legitimately unmatched inject event.
    bool okResidency = on4.residencyFactor <= 1.3 &&
                       off4.residencyFactor > on4.residencyFactor;
    bool okHitRate =
        on4.aggregateHitRate >= off4.aggregateHitRate - 0.02;
    bool okIdentity = true;
    for (const exp::ClusterPrefixResult *r :
         {&off4, &on4, &chatOff, &chatOn, &chaosR}) {
        okIdentity = okIdentity && r->prefix.sigMismatches == 0 &&
                     r->prefix.clusterSigMismatches == 0;
    }
    bool okChaos = chaosR.unfinished == 0 && chaosR.activePins == 0 &&
                   unmatchedFaults == 1;
    bool okDrained = on4.activePins == 0 && chatOn.activePins == 0;
    std::printf("acceptance: residency<=1.3x %s (%.2fx vs %.2fx "
                "baseline), hit_rate_no_regression %s (%.3f vs "
                "%.3f), byte_identity %s, chaos_clean %s, "
                "pins_drained %s\n",
                okResidency ? "PASS" : "FAIL", on4.residencyFactor,
                off4.residencyFactor, okHitRate ? "PASS" : "FAIL",
                on4.aggregateHitRate, off4.aggregateHitRate,
                okIdentity ? "PASS" : "FAIL",
                okChaos ? "PASS" : "FAIL",
                okDrained ? "PASS" : "FAIL");

    bench::JsonReporter report("cluster_prefix");
    report.set("smoke", smoke)
        .set("num_requests",
             static_cast<std::int64_t>(base.numRequests))
        .set("prefix_tokens", base.prefixTokens)
        .set("borrow_max_blocks", base.borrowMaxBlocks);
    report.set("sweep", std::move(sweepJson));
    report.set("chatbot_baseline", cellJson(chatOff));
    report.set("chatbot_registry", cellJson(chatOn));
    json::Object chaosJson = cellJson(chaosR);
    chaosJson["unmatched_fault_pairs"] =
        static_cast<std::int64_t>(unmatchedFaults);
    report.set("chaos", std::move(chaosJson));
    json::Object accept;
    accept["residency_single_copy"] = okResidency;
    accept["hit_rate_no_regression"] = okHitRate;
    accept["byte_identity"] = okIdentity;
    accept["chaos_clean"] = okChaos;
    accept["pins_drained"] = okDrained;
    report.set("acceptance", std::move(accept));
    report.write();

    return (okResidency && okHitRate && okIdentity && okChaos &&
            okDrained)
               ? 0
               : 1;
}
