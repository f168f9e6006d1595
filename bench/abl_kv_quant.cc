/**
 * @file
 * Ablation: quantized KV precision x sparse-attention reads, repricing
 * every offload decision.
 *
 * Three phases:
 *
 *  1. Precision sweep on the shared-prefix serving workload
 *     (runPrefixAblation): fp16/fp8/int4 x dense/0.5/0.25 sparse
 *     reads. Narrower KV shrinks every byte count derived from
 *     ModelSpec::kvBytesPerToken() — block sizes, swap payloads,
 *     offload traffic — so int4 should show ~4x smaller peak live KV
 *     than fp16 on the same trace, at the price of per-step dequant
 *     compute in the perf model.
 *
 *  2. Cluster borrow repricing (runClusterPrefix): sparse reads cut
 *     the per-step NVLink cost of serving a borrowed chain in place,
 *     so the borrow-vs-copy crossover admits longer chains as borrows.
 *
 *  3. Pressure-driven demotion (runOverload at x4 load): the KV
 *     precision governor quantizes cold KV leaving HBM as the pool
 *     drains, which must actually fire (reconfigurations + demoted
 *     payloads + saved bytes) without breaking byte identity.
 *
 * `--smoke` shrinks request counts for quick pipelines. Results land
 * in BENCH_kv_quant.json for CI artifact diffing.
 */

#include <cstring>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "model/kv_precision.hh"

using namespace aqua;

namespace {

constexpr model::KvPrecision kPrecisions[] = {
    model::KvPrecision::Fp16,
    model::KvPrecision::Fp8,
    model::KvPrecision::Int4,
};
constexpr double kSparsities[] = {1.0, 0.5, 0.25};

json::Object
cellJson(const exp::PrefixAblationResult &r)
{
    stats::Summary rct;
    for (const auto &m : r.metrics) {
        if (m.finished())
            rct.add(m.rctSec());
    }
    json::Object o;
    o["finished"] = static_cast<std::int64_t>(rct.count());
    o["rct_p50_sec"] = rct.median();
    o["tokens_per_sec"] = r.tokensPerSec;
    o["peak_live_kv_bytes"] =
        static_cast<std::int64_t>(r.peakLiveKvBytes);
    o["offload_write_bytes"] =
        static_cast<std::int64_t>(r.offloadWriteBytes);
    o["offload_read_bytes"] =
        static_cast<std::int64_t>(r.offloadReadBytes);
    o["hit_rate"] = r.prefixIndex.hitRate();
    o["sig_mismatches"] =
        static_cast<std::int64_t>(r.prefix.sigMismatches);
    return o;
}

json::Object
overloadJson(const exp::OverloadRunResult &r)
{
    json::Object o;
    o["shed"] = static_cast<std::int64_t>(r.shed);
    o["goodput_per_sec"] = r.goodputPerSec;
    o["attainment"] = r.attainment;
    o["queue_delay_p99_sec"] = r.queueDelayP99Sec;
    o["brownout_transitions"] =
        static_cast<std::int64_t>(r.brownout.transitions);
    o["brownout_escalations"] =
        static_cast<std::int64_t>(r.brownout.escalations);
    o["seconds_degraded"] = r.secondsDegraded;
    o["precision_reconfigs"] =
        static_cast<std::int64_t>(r.governor.reconfigurations);
    o["precision_demoted_payloads"] =
        static_cast<std::int64_t>(r.governor.demotedPayloads);
    o["precision_saved_bytes"] =
        static_cast<std::int64_t>(r.governor.savedBytes);
    o["sig_mismatches"] = static_cast<std::int64_t>(r.prefix.sigMismatches);
    o["unfinished"] = static_cast<std::int64_t>(r.unfinished);
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("KV quantization x sparse reads",
                  "precision/sparsity sweep, cluster borrow "
                  "repricing, pressure-driven demotion");

    //
    // Phase 1: precision x sparsity grid on the prefix-cache workload.
    //
    exp::PrefixAblationConfig base;
    base.prefixCache = true;
    if (smoke) {
        base.numRequests = 24;
        base.maxSimSeconds = 3000.0;
    }

    exp::PrefixAblationResult grid[3][3];
    for (int p = 0; p < 3; ++p) {
        for (int s = 0; s < 3; ++s) {
            exp::PrefixAblationConfig cfg = base;
            cfg.kvPrecision = kPrecisions[p];
            cfg.sparseReadFraction = kSparsities[s];
            grid[p][s] = exp::runPrefixAblation(cfg);
        }
    }

    stats::Table t({"precision", "sparse", "peak_live_kv_mib",
                    "offload_write_mib", "tokens_per_sec",
                    "hit_rate_pct"});
    for (int p = 0; p < 3; ++p) {
        for (int s = 0; s < 3; ++s) {
            const exp::PrefixAblationResult &r = grid[p][s];
            t.newRow()
                .cell(model::kvPrecisionName(kPrecisions[p]))
                .cell(kSparsities[s], 2)
                .cell(double(r.peakLiveKvBytes) / (1 << 20), 1)
                .cell(double(r.offloadWriteBytes) / (1 << 20), 1)
                .cell(r.tokensPerSec, 1)
                .cell(100.0 * r.prefixIndex.hitRate(), 1);
        }
    }
    bench::show(t);

    const exp::PrefixAblationResult &fp16d = grid[0][0];
    const exp::PrefixAblationResult &int4d = grid[2][0];
    double peakRatio =
        int4d.peakLiveKvBytes > 0
            ? double(fp16d.peakLiveKvBytes) /
                  double(int4d.peakLiveKvBytes)
            : 0.0;
    std::printf("peak live KV fp16 %.1f MiB -> int4 %.1f MiB "
                "(%.2fx reduction)\n",
                double(fp16d.peakLiveKvBytes) / (1 << 20),
                double(int4d.peakLiveKvBytes) / (1 << 20), peakRatio);

    bool okRatio = peakRatio >= 3.5;
    // Narrower KV must never enlarge the footprint or the offload
    // write volume, at any sparsity.
    bool okMonotone = true;
    bool okIdentity = true;
    for (int s = 0; s < 3; ++s) {
        for (int p = 1; p < 3; ++p) {
            if (grid[p][s].peakLiveKvBytes >
                    grid[p - 1][s].peakLiveKvBytes ||
                grid[p][s].offloadWriteBytes >
                    grid[p - 1][s].offloadWriteBytes)
                okMonotone = false;
        }
        for (int p = 0; p < 3; ++p) {
            if (grid[p][s].prefix.sigMismatches != 0)
                okIdentity = false;
        }
    }

    //
    // Phase 2: cluster borrow-vs-copy repricing under sparse reads.
    //
    exp::ClusterPrefixConfig cl;
    cl.registry = true;
    // 256-token preamble = 16 blocks: over the dense borrow cap (4
    // blocks -> copy), inside the sparse-repriced cap (4 / 0.25 = 16
    // -> borrow), so the crossover shift is visible.
    cl.prefixTokens = 256;
    if (smoke) {
        cl.numRequests = 48;
        cl.maxSimSeconds = 3000.0;
    }
    exp::ClusterPrefixConfig clSparse = cl;
    clSparse.sparseReadFraction = 0.25;
    exp::ClusterPrefixResult clDense = exp::runClusterPrefix(cl);
    exp::ClusterPrefixResult clSp = exp::runClusterPrefix(clSparse);

    std::printf("cluster borrows dense %llu (copies %llu) -> "
                "sparse 0.25 %llu (copies %llu), remote decode "
                "reads %.1f -> %.1f MiB\n",
                static_cast<unsigned long long>(
                    clDense.prefix.borrowAdmissions),
                static_cast<unsigned long long>(
                    clDense.prefix.copyAdmissions),
                static_cast<unsigned long long>(
                    clSp.prefix.borrowAdmissions),
                static_cast<unsigned long long>(clSp.prefix.copyAdmissions),
                double(clDense.prefix.remoteDecodeReadBytes) / (1 << 20),
                double(clSp.prefix.remoteDecodeReadBytes) / (1 << 20));

    bool okBorrow =
        clSp.prefix.borrowAdmissions > clDense.prefix.borrowAdmissions;
    bool okCluster = clDense.prefix.clusterSigMismatches == 0 &&
                     clSp.prefix.clusterSigMismatches == 0 &&
                     clDense.prefix.sigMismatches == 0 &&
                     clSp.prefix.sigMismatches == 0 &&
                     clDense.unfinished == 0 && clSp.unfinished == 0;

    //
    // Phase 3: pressure-driven precision demotion at x4 load.
    //
    exp::OverloadRunConfig ov;
    ov.controlled = true;
    ov.loadMultiplier = 4.0;
    // Tight pool: x4 load must actually drain the free fraction
    // through the governor's thresholds, not just the batch cap.
    ov.kvPoolBytes = 1200ull * 1000 * 1000;
    if (smoke) {
        ov.numRequests = 60;
        ov.maxSimSeconds = 2000.0;
    }
    exp::OverloadRunConfig ovGov = ov;
    ovGov.precisionGovernor = true;
    exp::OverloadRunResult ovOff = exp::runOverload(ov);
    exp::OverloadRunResult ovOn = exp::runOverload(ovGov);

    std::printf("x4 load: governor off goodput %.2f/s, %llu "
                "escalations, %.1fs degraded; governor on goodput "
                "%.2f/s, %llu escalations, %.1fs degraded, %llu "
                "reconfigs, %llu payloads demoted, %.1f MiB saved\n",
                ovOff.goodputPerSec,
                static_cast<unsigned long long>(
                    ovOff.brownout.escalations),
                ovOff.secondsDegraded, ovOn.goodputPerSec,
                static_cast<unsigned long long>(
                    ovOn.brownout.escalations),
                ovOn.secondsDegraded,
                static_cast<unsigned long long>(
                    ovOn.governor.reconfigurations),
                static_cast<unsigned long long>(
                    ovOn.governor.demotedPayloads),
                double(ovOn.governor.savedBytes) / (1 << 20));

    bool okGovernor = ovOn.governor.reconfigurations > 0 &&
                      ovOn.governor.demotedPayloads > 0 &&
                      ovOn.governor.savedBytes > 0;
    bool okOverload = ovOff.prefix.sigMismatches == 0 &&
                      ovOn.prefix.sigMismatches == 0 &&
                      ovOff.unfinished == 0 && ovOn.unfinished == 0;

    std::printf("acceptance: int4_peak_live_ge_3.5x %s, "
                "sweep_monotone %s, byte_identity %s, "
                "sparse_borrows_not_fewer %s, cluster_clean %s, "
                "governor_active %s, overload_clean %s\n",
                okRatio ? "PASS" : "FAIL",
                okMonotone ? "PASS" : "FAIL",
                okIdentity ? "PASS" : "FAIL",
                okBorrow ? "PASS" : "FAIL",
                okCluster ? "PASS" : "FAIL",
                okGovernor ? "PASS" : "FAIL",
                okOverload ? "PASS" : "FAIL");

    bench::JsonReporter report("kv_quant");
    report.set("smoke", smoke)
        .set("num_requests",
             static_cast<std::int64_t>(base.numRequests))
        .set("load_multiplier", ov.loadMultiplier)
        .set("peak_live_reduction_int4", peakRatio);
    json::Object sweep;
    for (int p = 0; p < 3; ++p) {
        for (int s = 0; s < 3; ++s) {
            char key[32];
            std::snprintf(key, sizeof key, "%s_sparse_%02d",
                          model::kvPrecisionName(kPrecisions[p]),
                          int(kSparsities[s] * 100));
            sweep[key] = cellJson(grid[p][s]);
        }
    }
    report.set("sweep", std::move(sweep));
    json::Object cluster;
    json::Object cd;
    cd["borrow_admissions"] =
        static_cast<std::int64_t>(clDense.prefix.borrowAdmissions);
    cd["copy_admissions"] =
        static_cast<std::int64_t>(clDense.prefix.copyAdmissions);
    cd["remote_decode_read_bytes"] =
        static_cast<std::int64_t>(clDense.prefix.remoteDecodeReadBytes);
    cd["aggregate_hit_rate"] = clDense.aggregateHitRate;
    cluster["dense"] = std::move(cd);
    json::Object cs;
    cs["borrow_admissions"] =
        static_cast<std::int64_t>(clSp.prefix.borrowAdmissions);
    cs["copy_admissions"] =
        static_cast<std::int64_t>(clSp.prefix.copyAdmissions);
    cs["remote_decode_read_bytes"] =
        static_cast<std::int64_t>(clSp.prefix.remoteDecodeReadBytes);
    cs["aggregate_hit_rate"] = clSp.aggregateHitRate;
    cluster["sparse_25"] = std::move(cs);
    report.set("cluster", std::move(cluster));
    json::Object overload;
    overload["governor_off"] = overloadJson(ovOff);
    overload["governor_on"] = overloadJson(ovOn);
    report.set("overload", std::move(overload));
    json::Object accept;
    accept["int4_peak_live_ge_3_5x"] = okRatio;
    accept["sweep_monotone"] = okMonotone;
    accept["byte_identity"] = okIdentity;
    accept["sparse_borrows_not_fewer"] = okBorrow;
    accept["cluster_clean"] = okCluster;
    accept["governor_active"] = okGovernor;
    accept["overload_clean"] = okOverload;
    report.set("acceptance", std::move(accept));
    report.write();

    return (okRatio && okMonotone && okIdentity && okBorrow &&
            okCluster && okGovernor && okOverload)
               ? 0
               : 1;
}
