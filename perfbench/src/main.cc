/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   aqua_perfbench --workload cluster|chat|bursts --seed N
 *                  --seconds S --trace 0|1 [--spans PATH]
 *
 * --trace 0 repeats the workload for S host seconds and prints the
 * end-to-end metrics; --trace 1 alternates bare and traced runs for S
 * seconds and prints the per-layer metrics. Both check the outputs
 * and exit non-zero on any failed check. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "report.hh"
#include "workloads.hh"

using namespace aqua;
using namespace aqua::perfbench;
using workload::RequestMetrics;

namespace {

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string spans;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: aqua_perfbench --workload "
                 "cluster|chat|bursts --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            o.trace = std::atoi(value.c_str());
        else if (flag == "--spans")
            o.spans = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (o.workload != "cluster" && o.workload != "chat" &&
        o.workload != "bursts")
        usage("unknown workload");
    if (o.seconds <= 0.0 || (o.trace != 0 && o.trace != 1))
        usage("bad --seconds or --trace");
    return o;
}

RunResult
runWorkload(const std::string &name, const RunParams &p)
{
    if (name == "cluster")
        return runCluster(p);
    if (name == "chat")
        return runChat(p);
    return runBursts(p);
}

double
peakRssMib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
servedCount(const std::vector<RequestMetrics> &requests)
{
    std::size_t n = 0;
    for (const RequestMetrics &m : requests)
        n += served(m);
    return n;
}

/**
 * The modeled end-to-end metrics of one run. Every p95 must have at
 * least ten samples beyond it; the counts are printed either way.
 */
std::vector<Metric>
modeledMetrics(const RunResult &r, std::vector<std::string> &failures)
{
    std::vector<double> ttft, tpot, rct;
    for (const RequestMetrics &m : r.requests) {
        if (!served(m))
            continue;
        ttft.push_back(m.ttftSec());
        rct.push_back(m.rctSec());
        if (m.tokensGenerated >= 2)
            tpot.push_back(tpotSec(m));
    }
    std::vector<Metric> out;
    auto pct = [&](const char *name, const std::vector<double> &v,
                   double q) {
        Percentile p = tailPercentile(v, q);
        std::printf("  %-12s = %-12.6g over %zu samples, %zu beyond\n",
                    name, p.value, p.samples, p.beyond);
        if (!p.reportable)
            failures.push_back(std::string(name) + ": only " +
                               std::to_string(p.beyond) +
                               " samples beyond the percentile");
        out.push_back({name, p.value, "s"});
    };
    pct("ttft_p50_s", ttft, 50.0);
    pct("ttft_p95_s", ttft, 95.0);
    pct("tpot_p50_s", tpot, 50.0);
    pct("tpot_p95_s", tpot, 95.0);
    pct("rct_p50_s", rct, 50.0);
    pct("rct_p95_s", rct, 95.0);
    out.push_back({"tokens_per_s", r.tokensPerSec, "tok/s"});
    out.push_back({"slo_attainment", sloAttainment(r.requests, SloSpec{}),
                   "ratio"});
    double attempted = static_cast<double>(r.requests.size());
    out.push_back({"success_frac",
                   attempted > 0.0 ? servedCount(r.requests) / attempted
                                   : 0.0,
                   "ratio"});
    return out;
}

/**
 * Backlog check for open-loop traffic: the RCT median of the last
 * quarter of arrivals stays within @p factor of the first quarter's,
 * so the workload measures service, not a growing queue.
 */
void
checkBacklog(const RunResult &r, double factor,
             std::vector<std::string> &failures)
{
    std::vector<RequestMetrics> byArrival = r.requests;
    std::stable_sort(byArrival.begin(), byArrival.end(),
                     [](const auto &a, const auto &b) {
                         return a.arrival < b.arrival;
                     });
    std::size_t q = byArrival.size() / 4;
    auto rctMedian = [&](std::size_t from, std::size_t to) {
        std::vector<double> v;
        for (std::size_t i = from; i < to; ++i) {
            if (served(byArrival[i]))
                v.push_back(byArrival[i].rctSec());
        }
        return median(v);
    };
    double first = rctMedian(0, q);
    double last = rctMedian(byArrival.size() - q, byArrival.size());
    std::printf("  backlog: RCT median first quarter %.3f s, last "
                "quarter %.3f s (limit %.2fx)\n",
                first, last, factor);
    if (!(first > 0.0) || last > factor * first)
        failures.push_back("backlog: last-quarter RCT median exceeds " +
                           std::to_string(factor) + "x the first's");
}

/** Checks every run makes, traced or not. */
void
checkRun(const std::string &workload, const RunResult &r,
         std::vector<std::string> &failures)
{
    // The workload's own checks include the request ledger's: every
    // request an engine finished was attempted exactly once, so each
    // attempted request counts once as finished or failed.
    failures.insert(failures.end(), r.failures.begin(),
                    r.failures.end());
    if (r.requests.empty())
        failures.push_back("no requests attempted");
    if (workload == "bursts")
        checkBacklog(r, 1.5, failures);
}

/** Print the last line: the result object. */
void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/**
 * Sample set-up alone: at least 31 samples and one host second, so
 * the median of a sub-millisecond set-up is not at the mercy of a few
 * slow samples.
 */
void
sampleSetup(const Options &o, const RunResult &first,
            std::vector<double> &setups)
{
    RunParams p;
    p.seed = o.seed;
    p.setupOnly = true;
    p.placement = first.placement ? &*first.placement : nullptr;
    auto t0 = HostClock::now();
    while (setups.size() < 31 ||
           (secondsSince(t0) < 1.0 && setups.size() < 5000))
        setups.push_back(runWorkload(o.workload, p).setupSec);
}

int
endToEnd(const Options &o)
{
    std::vector<std::string> failures;
    std::vector<double> walls, setups;
    std::size_t attempted = 0, failed = 0;
    RunParams p;
    p.seed = o.seed;
    // Repeat until the time is up; a workload whose one run outlasts
    // it is measured once (the traced mode always runs it twice). Only
    // the first run is kept: the others must model the same outputs.
    std::optional<RunResult> first;
    std::uint64_t digest = 0;
    auto t0 = HostClock::now();
    do {
        RunResult r = runWorkload(o.workload, p);
        walls.push_back(r.wallSec);
        setups.push_back(r.setupSec);
        attempted += r.requests.size();
        failed += r.requests.size() - servedCount(r.requests);
        if (!first) {
            digest = modeledDigest(r);
            first = std::move(r);
        } else if (modeledDigest(r) != digest) {
            failures.push_back("modeled outputs differ between two runs "
                               "of one seed");
        }
    } while (secondsSince(t0) < o.seconds && walls.size() < 1000);
    sampleSetup(o, *first, setups);

    const RunResult &r = *first;
    std::printf("perfbench %s seed %llu: %zu runs, %zu requests each\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), walls.size(),
                r.requests.size());
    checkRun(o.workload, r, failures);
    std::printf("  wall_s over runs: min %.6g, max %.6g\n",
                *std::min_element(walls.begin(), walls.end()),
                *std::max_element(walls.begin(), walls.end()));

    std::vector<Metric> metrics = {
        {"setup_s", median(setups), "s"},
        {"wall_s", median(walls), "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
    };
    for (Metric &m : modeledMetrics(r, failures))
        metrics.push_back(m);

    for (const Metric &m : metrics)
        std::printf("  %-16s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    printResult(failures.empty(), attempted, failed, metrics);
    return failures.empty() ? 0 : 1;
}

/** The per-layer metrics a traced run reports, in output order. */
const std::vector<std::pair<const char *, const char *>> layerMetrics = {
    {"placer.place_s", "s"},
    {"placer.nodes", "count"},
    {"placer.s_per_node", "s"},
    {"placer.objective_gb", "GB"},
    {"placer.greedy_gap_gb", "GB"},
    {"placer.paired_frac", "ratio"},
    {"placer.wall_share", "ratio"},
    {"sim.events", "count"},
    {"sim.run_host_s", "s"},
    {"sim.events_per_host_s", "1/s"},
    {"serve.self_host_s", "s"},
    {"serve.self_wall_share", "ratio"},
    {"serve.iterations", "count"},
    {"serve.batch_tokens_mean", "tok"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_p95_s", "s"},
    {"serve.swap_outs", "count"},
    {"serve.swap_ins", "count"},
    {"serve.recomputes", "count"},
    {"serve.prefix_hit_rate", "ratio"},
    {"serve.cached_token_frac", "ratio"},
    {"serve.hit_tokens_local", "tok"},
    {"serve.hit_tokens_remote_peer", "tok"},
    {"serve.hit_tokens_dram", "tok"},
    {"serve.hit_tokens_remote_server", "tok"},
    {"serve.peak_live_kv_gib", "GiB"},
    {"serve.offload_calls", "count"},
    {"serve.offload_gib", "GiB"},
    {"serve.offload_link_s", "s"},
    {"serve.offload_host_s", "s"},
    {"aqua.rest_calls", "count"},
    {"aqua.rest_retries", "count"},
    {"aqua.rest_failures", "count"},
    {"aqua.peer_byte_frac", "ratio"},
    {"aqua.staging_desc_per_transfer", "count"},
    {"aqua.staging_bw_p50_gbps", "GB/s"},
    {"aqua.staging_queue_p95_s", "s"},
    {"cluster.registry_hit_rate", "ratio"},
    {"cluster.borrow_admissions", "count"},
    {"cluster.copy_admissions", "count"},
    {"federation.stream_decisions", "count"},
    {"federation.recompute_decisions", "count"},
    {"federation.streams_completed", "count"},
    {"federation.streams_invalidated", "count"},
    {"federation.fetch_refusals", "count"},
    {"federation.adverts_applied", "count"},
    {"hw.fabric_bytes", "B"},
    {"hw.fabric_transfers", "count"},
    {"hw.fabric_queue_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

/** Host-share and probe metrics of one traced run. */
std::map<std::string, double>
probeMetrics(const RunResult &r, const Tracer &t)
{
    std::map<std::string, double> L;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    L["placer.place_s"] = t.placeHostSec;
    L["placer.s_per_node"] =
        ratio(t.placeHostSec, r.layer.count("placer.nodes")
                                  ? r.layer.at("placer.nodes")
                                  : 0.0);
    L["placer.wall_share"] = ratio(t.placeHostSec, r.wallSec);
    L["sim.run_host_s"] = t.simRunHostSec;
    L["sim.events_per_host_s"] =
        ratio(r.layer.at("sim.events"), t.simRunHostSec);
    L["serve.self_host_s"] = t.simRunHostSec - t.offloadHostSec;
    L["serve.self_wall_share"] =
        ratio(t.simRunHostSec - t.offloadHostSec, r.wallSec);
    L["serve.batch_tokens_mean"] =
        ratio(double(t.iterationTokens), double(t.iterationCount));
    L["serve.offload_calls"] = double(t.offloadCalls);
    L["serve.offload_gib"] = double(t.offloadBytes) / double(1ull << 30);
    L["serve.offload_link_s"] = t.offloadLinkSec;
    L["serve.offload_host_s"] = t.offloadHostSec;
    L["aqua.rest_calls"] = double(t.totalRestCalls());
    return L;
}

int
perLayer(const Options &o)
{
    std::vector<std::string> failures;
    std::vector<double> bareWalls, tracedWalls;
    std::map<std::string, std::vector<double>> hostSamples;
    std::size_t attempted = 0, failed = 0;
    // The first traced run and its spans are kept; later pairs only
    // add host-time samples and must model the same outputs.
    std::optional<RunResult> first;
    std::unique_ptr<Tracer> firstTracer;
    std::uint64_t digest = 0;
    auto t0 = HostClock::now();
    do {
        RunParams p;
        p.seed = o.seed;
        RunResult bare = runWorkload(o.workload, p);
        auto tracer = std::make_unique<Tracer>();
        p.tracer = tracer.get();
        RunResult withProbes = runWorkload(o.workload, p);
        if (modeledDigest(bare) != modeledDigest(withProbes))
            failures.push_back("traced run's modeled outputs differ "
                               "from the bare run's");
        bareWalls.push_back(bare.wallSec);
        tracedWalls.push_back(withProbes.wallSec);
        for (const auto &[name, value] :
             probeMetrics(withProbes, *tracer))
            hostSamples[name].push_back(value);
        attempted += withProbes.requests.size();
        failed += withProbes.requests.size() -
                  servedCount(withProbes.requests);
        if (!first) {
            digest = modeledDigest(withProbes);
            first = std::move(withProbes);
            firstTracer = std::move(tracer);
        } else if (modeledDigest(bare) != digest) {
            failures.push_back("modeled outputs differ between two runs "
                               "of one seed");
        }
    } while (secondsSince(t0) < o.seconds && bareWalls.size() < 1000);

    const RunResult &r = *first;
    checkRun(o.workload, r, failures);
    std::map<std::string, double> layer = r.layer;
    // Probe metrics: host times are medians over the traced runs.
    for (const auto &[name, values] : hostSamples)
        layer[name] = median(values);
    std::vector<double> queueWait;
    for (const RequestMetrics &m : r.requests) {
        if (served(m))
            queueWait.push_back(
                m.admitted > m.arrival
                    ? aqua::sim::ticksToSec(m.admitted - m.arrival)
                    : 0.0);
    }
    layer["serve.queue_wait_p50_s"] =
        tailPercentile(queueWait, 50.0, 0).value;
    layer["serve.queue_wait_p95_s"] =
        tailPercentile(queueWait, 95.0, 0).value;
    layer["trace.overhead_frac"] =
        median(tracedWalls) / median(bareWalls) - 1.0;
    // The cluster placement is the only placer work; the others never
    // call it and report zero placer time.
    for (const char *name : {"placer.nodes", "placer.objective_gb",
                             "placer.greedy_gap_gb",
                             "placer.paired_frac"})
        layer.emplace(name, 0.0);

    if (!o.spans.empty() &&
        !firstTracer->writeSpans(o.spans, o.workload))
        failures.push_back("cannot write spans to " + o.spans);

    std::printf("perfbench %s seed %llu (traced): %zu bare/traced "
                "pairs, %zu request spans, %zu offload spans\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                bareWalls.size(), firstTracer->requestSpans.size(),
                firstTracer->offloadSpans.size());
    for (const auto &[route, count] : firstTracer->restCalls)
        std::printf("  rest %-32s %llu\n", route.c_str(),
                    static_cast<unsigned long long>(count));

    std::vector<Metric> metrics;
    for (const auto &[name, unit] : layerMetrics) {
        auto it = layer.find(name);
        if (it == layer.end()) {
            failures.push_back(std::string("no measurement for ") + name);
            continue;
        }
        metrics.push_back({name, it->second, unit});
        std::printf("  %-34s %.6g %s\n", name, it->second, unit);
    }
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    printResult(failures.empty(), attempted, failed, metrics);
    return failures.empty() ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    return o.trace ? perLayer(o) : endToEnd(o);
}
