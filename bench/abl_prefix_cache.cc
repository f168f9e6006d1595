/**
 * @file
 * Ablation: copy-on-write prefix caching on a shared-prefix serving
 * workload, sharing ON vs OFF.
 *
 * Requests arrive in groups that open with the same system prompt
 * (workload::Generator::sharedPrefix), so with caching enabled every
 * request after the first in a group prefills its preamble from
 * resident KV blocks. The run reports the block hit rate, the live-KV
 * high-water mark (HBM saved), bytes moved over the offload path
 * (NVLink traffic saved by shared-group dedup and resident reuse) and
 * decode throughput for both configurations, and writes the whole
 * comparison to BENCH_prefix_cache.json for CI artifact diffing.
 *
 * `--smoke` shrinks the request count for quick pipelines.
 */

#include <cstring>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"

using namespace aqua;

namespace {

json::Object
modeJson(const exp::PrefixAblationResult &r)
{
    stats::Summary rct;
    for (const auto &m : r.metrics) {
        if (m.finished())
            rct.add(m.rctSec());
    }
    json::Object o;
    o["finished"] = static_cast<std::int64_t>(rct.count());
    o["rct_p50_sec"] = rct.median();
    o["rct_p95_sec"] = rct.p95();
    o["tokens_per_sec"] = r.tokensPerSec;
    o["peak_live_kv_bytes"] =
        static_cast<std::int64_t>(r.peakLiveKvBytes);
    o["offload_write_bytes"] =
        static_cast<std::int64_t>(r.offloadWriteBytes);
    o["offload_read_bytes"] =
        static_cast<std::int64_t>(r.offloadReadBytes);
    o["swap_outs"] = static_cast<std::int64_t>(r.swapOuts);
    o["swap_ins"] = static_cast<std::int64_t>(r.swapIns);
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("Prefix-cache ablation",
                  "shared-prefix chatbot traffic, CoW KV sharing "
                  "on vs off");

    exp::PrefixAblationConfig cfg;
    if (smoke) {
        cfg.numRequests = 30;
        cfg.maxSimSeconds = 3000.0;
    }

    exp::PrefixAblationConfig off = cfg;
    off.prefixCache = false;
    exp::PrefixAblationResult offR = exp::runPrefixAblation(off);

    exp::PrefixAblationConfig on = cfg;
    on.prefixCache = true;
    exp::PrefixAblationResult onR = exp::runPrefixAblation(on);

    // Sharing on, but cache-only retention capped to a quarter of the
    // pool (KvCacheConfig::maxCacheShare) — the brownout-friendly
    // configuration that bounds how much HBM cache upkeep can occupy.
    exp::PrefixAblationConfig capped = cfg;
    capped.prefixCache = true;
    capped.maxCacheShare = 0.25;
    exp::PrefixAblationResult capR = exp::runPrefixAblation(capped);

    // Capped again, but victims picked cost-aware (chain depth x hit
    // count) instead of pure LRU: deep, hot preamble blocks survive
    // pressure that would rotate them out under recency alone.
    exp::PrefixAblationConfig costAware = capped;
    costAware.eviction = serve::EvictionPolicy::CostAware;
    exp::PrefixAblationResult costR = exp::runPrefixAblation(costAware);

    const serve::PrefixIndexStats &pi = onR.prefixIndex;
    const serve::PrefixCacheEngineStats &pc = onR.prefix;
    double hbmSaved =
        offR.peakLiveKvBytes > onR.peakLiveKvBytes
            ? double(offR.peakLiveKvBytes - onR.peakLiveKvBytes)
            : 0.0;
    std::uint64_t offloadOff =
        offR.offloadWriteBytes + offR.offloadReadBytes;
    std::uint64_t offloadOn =
        onR.offloadWriteBytes + onR.offloadReadBytes;

    stats::Table t({"metric", "sharing_off", "sharing_on",
                    "capped_25pct", "capped_cost_aware"});
    t.newRow()
        .cell("peak_live_kv_mib")
        .cell(double(offR.peakLiveKvBytes) / (1 << 20), 1)
        .cell(double(onR.peakLiveKvBytes) / (1 << 20), 1)
        .cell(double(capR.peakLiveKvBytes) / (1 << 20), 1)
        .cell(double(costR.peakLiveKvBytes) / (1 << 20), 1);
    t.newRow()
        .cell("offload_write_mib")
        .cell(double(offR.offloadWriteBytes) / (1 << 20), 1)
        .cell(double(onR.offloadWriteBytes) / (1 << 20), 1)
        .cell(double(capR.offloadWriteBytes) / (1 << 20), 1)
        .cell(double(costR.offloadWriteBytes) / (1 << 20), 1);
    t.newRow()
        .cell("offload_read_mib")
        .cell(double(offR.offloadReadBytes) / (1 << 20), 1)
        .cell(double(onR.offloadReadBytes) / (1 << 20), 1)
        .cell(double(capR.offloadReadBytes) / (1 << 20), 1)
        .cell(double(costR.offloadReadBytes) / (1 << 20), 1);
    t.newRow()
        .cell("tokens_per_sec")
        .cell(offR.tokensPerSec, 1)
        .cell(onR.tokensPerSec, 1)
        .cell(capR.tokensPerSec, 1)
        .cell(costR.tokensPerSec, 1);
    t.newRow()
        .cell("swap_outs")
        .cell(std::uint64_t(offR.swapOuts))
        .cell(std::uint64_t(onR.swapOuts))
        .cell(std::uint64_t(capR.swapOuts))
        .cell(std::uint64_t(costR.swapOuts));
    t.newRow()
        .cell("hit_rate_pct")
        .cell(0.0, 1)
        .cell(100.0 * pi.hitRate(), 1)
        .cell(100.0 * capR.prefixIndex.hitRate(), 1)
        .cell(100.0 * costR.prefixIndex.hitRate(), 1);
    bench::show(t);

    std::printf("hit rate %.1f%% (%llu hits / %llu misses, %llu "
                "partial), %llu tokens prefilled from cache, %llu "
                "CoW forks\n",
                100.0 * pi.hitRate(),
                static_cast<unsigned long long>(pi.hits),
                static_cast<unsigned long long>(pi.misses),
                static_cast<unsigned long long>(pi.partialHits),
                static_cast<unsigned long long>(pc.cachedTokens),
                static_cast<unsigned long long>(pc.cowForks));
    std::printf("HBM saved at peak: %.1f MiB; offload bytes: %.1f -> "
                "%.1f MiB (dedup saved %.1f MiB, resident reuse "
                "%.1f MiB)\n",
                hbmSaved / (1 << 20), double(offloadOff) / (1 << 20),
                double(offloadOn) / (1 << 20),
                double(pc.dedupSavedBytes) / (1 << 20),
                double(pc.residentReuseBytes) / (1 << 20));

    bool okHitRate = pi.hitRate() > 0.5;
    bool okPeak = onR.peakLiveKvBytes < offR.peakLiveKvBytes;
    bool okOffload = onR.offloadWriteBytes <= offR.offloadWriteBytes;
    bool okIdentity = pc.sigMismatches == 0 &&
                      capR.prefix.sigMismatches == 0 &&
                      costR.prefix.sigMismatches == 0;
    // Under the same retention cap, cost-aware victim selection must
    // not lose hit rate to LRU on a depth-skewed workload.
    bool okCostAware =
        costR.prefixIndex.hitRate() >= capR.prefixIndex.hitRate() - 0.02;
    std::printf("acceptance: hit_rate>50%% %s, peak_live on<off %s, "
                "offload_write on<=off %s, byte_identity %s, "
                "cost_aware_no_regression %s\n",
                okHitRate ? "PASS" : "FAIL", okPeak ? "PASS" : "FAIL",
                okOffload ? "PASS" : "FAIL",
                okIdentity ? "PASS" : "FAIL",
                okCostAware ? "PASS" : "FAIL");

    bench::JsonReporter report("prefix_cache");
    report.set("smoke", smoke)
        .set("num_requests", static_cast<std::int64_t>(cfg.numRequests))
        .set("prefix_tokens", cfg.prefixTokens)
        .set("num_groups", exp::prefixAblationGroups);
    report.set("sharing_off", modeJson(offR));
    report.set("sharing_on", modeJson(onR));
    json::Object cappedJson = modeJson(capR);
    cappedJson["max_cache_share"] = capped.maxCacheShare;
    cappedJson["hit_rate"] = capR.prefixIndex.hitRate();
    report.set("sharing_capped", std::move(cappedJson));
    json::Object costJson = modeJson(costR);
    costJson["max_cache_share"] = costAware.maxCacheShare;
    costJson["hit_rate"] = costR.prefixIndex.hitRate();
    costJson["evictions"] =
        static_cast<std::int64_t>(costR.prefixIndex.evictions);
    report.set("sharing_cost_aware", std::move(costJson));
    json::Object prefix;
    prefix["hit_rate"] = pi.hitRate();
    prefix["hits"] = static_cast<std::int64_t>(pi.hits);
    prefix["misses"] = static_cast<std::int64_t>(pi.misses);
    prefix["partial_hits"] = static_cast<std::int64_t>(pi.partialHits);
    prefix["collisions"] = static_cast<std::int64_t>(pi.collisions);
    prefix["evictions"] = static_cast<std::int64_t>(pi.evictions);
    prefix["cached_tokens"] = static_cast<std::int64_t>(pc.cachedTokens);
    prefix["cow_forks"] = static_cast<std::int64_t>(pc.cowForks);
    prefix["dedup_saved_bytes"] =
        static_cast<std::int64_t>(pc.dedupSavedBytes);
    prefix["resident_reuse_bytes"] =
        static_cast<std::int64_t>(pc.residentReuseBytes);
    prefix["sig_mismatches"] =
        static_cast<std::int64_t>(pc.sigMismatches);
    prefix["hit_tokens_local"] =
        static_cast<std::int64_t>(pc.hitTokensLocal);
    prefix["hit_tokens_remote_peer"] =
        static_cast<std::int64_t>(pc.hitTokensRemote);
    prefix["hit_tokens_dram"] =
        static_cast<std::int64_t>(pc.hitTokensDram);
    report.set("prefix_cache", std::move(prefix));
    json::Object accept;
    accept["hit_rate_gt_50pct"] = okHitRate;
    accept["peak_live_reduced"] = okPeak;
    accept["offload_write_not_worse"] = okOffload;
    accept["byte_identity"] = okIdentity;
    accept["cost_aware_no_regression"] = okCostAware;
    report.set("acceptance", std::move(accept));
    report.write();

    return (okHitRate && okPeak && okOffload && okIdentity &&
            okCostAware)
               ? 0
               : 1;
}
