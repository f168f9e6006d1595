/**
 * @file
 * Ablation: SSD storage tier with predictive prefetch and
 * cold-session park/resume.
 *
 * A multi-turn chatbot population goes idle between turns; sessions
 * idling past the park threshold dump their KV to the SSD tier and,
 * when the user returns, either stream it back through the
 * double-buffered prefetch pipeline (overlapped with decode of warm
 * sequences) or re-prefill from scratch — whichever the roofline
 * cost check predicts is faster. Four cells:
 *
 *  1. tiering on vs off: cold-turn TTFT with SSD resume vs full
 *     re-prefill;
 *  2. parked-session sweep: goodput and resume latency as the parked
 *     population grows;
 *  3. media-degradation sweep: the stream-vs-recompute crossover —
 *     a throttled drive must flip the resume decision to recompute;
 *  4. chaos: ssd_degrade + ssd_fail injected mid-run — every session
 *     must still finish, falling back to recompute.
 *
 * `--smoke` shrinks the population for quick pipelines.
 */

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "exp/experiments.hh"
#include "fault/fault.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::sim;

namespace {

json::Object
cellJson(const exp::TieringRunResult &r)
{
    json::Object o;
    o["requests"] = static_cast<std::int64_t>(r.metrics.size());
    o["parks"] = static_cast<std::int64_t>(r.parks);
    o["stream_resumes"] =
        static_cast<std::int64_t>(r.streamResumes);
    o["recompute_resumes"] =
        static_cast<std::int64_t>(r.recomputeResumes);
    o["tier_demotions"] =
        static_cast<std::int64_t>(r.tierDemotions);
    o["parked_at_end"] = static_cast<std::int64_t>(r.parkedAtEnd);
    o["cold_ttft_p50_sec"] = r.coldTtftP50Sec;
    o["cold_ttft_p99_sec"] = r.coldTtftP99Sec;
    o["warm_ttft_p50_sec"] = r.warmTtftP50Sec;
    o["streams_started"] =
        static_cast<std::int64_t>(r.prefetch.streamsStarted);
    o["streams_completed"] =
        static_cast<std::int64_t>(r.prefetch.streamsCompleted);
    o["streams_cancelled"] =
        static_cast<std::int64_t>(r.prefetch.streamsCancelled);
    o["bytes_streamed"] =
        static_cast<std::int64_t>(r.prefetch.bytesStreamed);
    o["bytes_wasted"] = static_cast<std::int64_t>(r.prefetch.bytesWasted);
    o["overlap_efficiency_mean"] = r.overlapEfficiencyMean;
    o["ssd_bytes_read"] = static_cast<std::int64_t>(r.ssdBytesRead);
    o["ssd_bytes_written"] =
        static_cast<std::int64_t>(r.ssdBytesWritten);
    o["tokens_per_sec"] = r.tokensPerSec;
    o["unfinished"] = static_cast<std::int64_t>(r.unfinished);
    o["elapsed_sec"] = r.elapsedSec;
    return o;
}

/** Chaos plan: a GC storm throttles the drive across the first
 *  resume wave, then the drive drops off the bus entirely for a
 *  stretch of the second. */
fault::FaultPlan
tieringChaosPlan()
{
    fault::FaultPlan plan;
    fault::FaultSpec degrade;
    degrade.kind = fault::FaultKind::SsdDegrade;
    degrade.at = secToTicks(40.0);
    degrade.duration = secToTicks(40.0);
    degrade.factor = 0.02;
    plan.add(degrade);
    fault::FaultSpec fail;
    fail.kind = fault::FaultKind::SsdFail;
    fail.at = secToTicks(85.0);
    fail.duration = secToTicks(30.0);
    plan.add(fail);
    return plan;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("SSD-tiering ablation",
                  "cold-session park/resume via SSD prefetch vs "
                  "full re-prefill");

    exp::TieringRunConfig base;
    if (smoke) {
        base.users = 8;
        base.maxSimSeconds = 2000.0;
    }

    json::Object cells;
    stats::Table t({"cell", "served", "parks", "stream", "recomp",
                    "cold p50 s", "cold p99 s", "overlap",
                    "tok/s", "unfinished"});
    auto row = [&](const std::string &name,
                   const exp::TieringRunResult &r) {
        t.newRow()
            .cell(name)
            .cell(static_cast<double>(r.metrics.size()), 0)
            .cell(static_cast<double>(r.parks), 0)
            .cell(static_cast<double>(r.streamResumes), 0)
            .cell(static_cast<double>(r.recomputeResumes), 0)
            .cell(r.coldTtftP50Sec, 3)
            .cell(r.coldTtftP99Sec, 3)
            .cell(r.overlapEfficiencyMean, 2)
            .cell(r.tokensPerSec, 1)
            .cell(static_cast<double>(r.unfinished), 0);
        cells[name] = cellJson(r);
    };

    // Cell 1: resume-vs-reprefill. Same trace, tier detached in the
    // baseline so every cold turn pays the full prefill.
    exp::TieringRunConfig offCfg = base;
    offCfg.tiering = false;
    exp::TieringRunResult off = exp::runTiering(offCfg);
    row("reprefill_baseline", off);

    exp::TieringRunResult on = exp::runTiering(base);
    row("ssd_resume", on);

    // Cell 2: goodput vs parked-session count.
    std::vector<std::uint32_t> populations =
        smoke ? std::vector<std::uint32_t>{8, 16}
              : std::vector<std::uint32_t>{8, 24, 48};
    for (std::uint32_t users : populations) {
        exp::TieringRunConfig cfg = base;
        cfg.users = users;
        exp::TieringRunResult r = exp::runTiering(cfg);
        row("parked_" + std::to_string(users), r);
    }

    // Cell 3: the stream-vs-recompute crossover. Healthy media
    // streams KV far faster than the GPU re-prefills it; throttling
    // the drive inflates the stream estimate until the cost check
    // flips to recompute.
    std::vector<double> degrades =
        smoke ? std::vector<double>{1.0, 0.01}
              : std::vector<double>{1.0, 0.25, 0.05, 0.01};
    exp::TieringRunResult healthy, throttled;
    for (double factor : degrades) {
        exp::TieringRunConfig cfg = base;
        cfg.ssdDegradeFactor = factor;
        exp::TieringRunResult r = exp::runTiering(cfg);
        row("degrade_" + std::to_string(factor).substr(0, 4), r);
        if (factor == 1.0)
            healthy = r;
        if (factor == 0.01)
            throttled = r;
    }

    // Cell 4: chaos — drive throttled then offline across the resume
    // wave. Sessions whose stream dies mid-flight (or whose parked
    // copy is on a dead drive) must finish via recompute.
    trace::TraceLog chaosLog;
    fault::FaultPlan plan = tieringChaosPlan();
    exp::TieringRunConfig chaosCfg = base;
    chaosCfg.faults = &plan;
    chaosCfg.traceLog = &chaosLog;
    exp::TieringRunResult chaos = exp::runTiering(chaosCfg);
    row("chaos_degrade_fail", chaos);
    bench::show(t);

    // Acceptance.
    bool okParks = on.parks > 0 && on.streamResumes > 0;
    bool okResumeBeatsPrefill =
        on.coldTtftP50Sec < off.coldTtftP50Sec &&
        off.coldTtftP50Sec > 0.0;
    bool okOverlap = on.overlapEfficiencyMean >= 0.5;
    bool okCrossover = healthy.streamResumes > 0 &&
                       throttled.recomputeResumes > 0 &&
                       throttled.streamResumes == 0;
    bool okChaos =
        chaos.unfinished == 0 && chaos.recomputeResumes > 0;

    std::printf("cold TTFT p50: resume %.3fs vs re-prefill %.3fs "
                "(%.0f%% of baseline)\n",
                on.coldTtftP50Sec, off.coldTtftP50Sec,
                off.coldTtftP50Sec > 0.0
                    ? 100.0 * on.coldTtftP50Sec / off.coldTtftP50Sec
                    : 0.0);
    std::printf("prefetch overlap efficiency %.2f over %llu streams "
                "(%llu cancelled, %llu MiB wasted)\n",
                on.overlapEfficiencyMean,
                static_cast<unsigned long long>(on.prefetch.streamsStarted),
                static_cast<unsigned long long>(
                    on.prefetch.streamsCancelled),
                static_cast<unsigned long long>(on.prefetch.bytesWasted >>
                                                20));
    std::printf("chaos cell: %llu stream / %llu recompute resumes, "
                "%llu unfinished\n",
                static_cast<unsigned long long>(chaos.streamResumes),
                static_cast<unsigned long long>(
                    chaos.recomputeResumes),
                static_cast<unsigned long long>(chaos.unfinished));
    std::printf("acceptance: parks %s, resume_beats_reprefill %s, "
                "overlap>=0.5 %s, crossover_flips %s, "
                "chaos_recompute_fallback %s\n",
                okParks ? "PASS" : "FAIL",
                okResumeBeatsPrefill ? "PASS" : "FAIL",
                okOverlap ? "PASS" : "FAIL",
                okCrossover ? "PASS" : "FAIL",
                okChaos ? "PASS" : "FAIL");

    bench::JsonReporter report("tiering");
    report.set("smoke", smoke)
        .set("users", static_cast<std::int64_t>(base.users))
        .set("turns", static_cast<std::int64_t>(base.turns))
        .set("park_after_sec", base.parkAfterSec)
        .set("resume_safety_factor", base.resumeSafetyFactor);
    report.set("cells", std::move(cells));
    json::Object accept;
    accept["sessions_park_and_stream"] = okParks;
    accept["resume_beats_reprefill"] = okResumeBeatsPrefill;
    accept["prefetch_overlap_ge_50pct"] = okOverlap;
    accept["degrade_crossover_flips"] = okCrossover;
    accept["chaos_recompute_fallback"] = okChaos;
    report.set("acceptance", std::move(accept));
    report.write();

    bool ok = okParks && okResumeBeatsPrefill && okOverlap &&
              okCrossover && okChaos;
    return ok ? 0 : 1;
}
