/**
 * @file
 * Ablation: cluster-scale simulation of a 64-GPU scale-up cluster.
 *
 * The headline run is a 64-GPU cluster (8 NVLink domains x 8 GPUs)
 * serving one million requests with live placement churn and
 * cross-domain hot-prefix traffic, on one DomainNet. A smaller
 * instance then runs twice and must reproduce itself exactly:
 * per-domain event digests, end-state stats and message counts.
 *
 * Host wall-clock numbers (and events/s) are printed to stderr only;
 * stdout and BENCH_cluster_sim.json carry exclusively deterministic
 * values so two runs of the same seed are byte-equal.
 *
 * Flags: `--smoke` shrinks the workload for quick pipelines,
 * `--seed N` sets the seed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.hh"
#include "exp/cluster_sim.hh"
#include "stats/table.hh"

using namespace aqua;
using namespace aqua::exp;

namespace {

ClusterSimConfig
clusterConfig(std::uint64_t seed, std::uint64_t requests)
{
    ClusterSimConfig cfg;
    cfg.numDomains = 8;
    cfg.gpusPerDomain = 8;
    cfg.modelsPerDomain = 2;
    cfg.seed = seed;
    cfg.numRequests = requests;
    cfg.arrivalRatePerDomain = 4000.0;
    cfg.prefixProb = 0.3;
    cfg.prefixPool = 64;
    cfg.placementEvents = 12;
    cfg.churnIntervalSec = requests >= 500000 ? 2.0 : 0.05;
    return cfg;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 10);
    }

    std::uint64_t headlineRequests = smoke ? 50000 : 1000000;
    std::uint64_t checkRequests = smoke ? 5000 : 50000;

    bench::banner("Ablation: cluster simulation",
                  "64 GPUs in 8 NVLink domains on one DomainNet, "
                  "run-twice determinism");

    bench::JsonReporter json("cluster_sim");
    json::Object cfgJson;
    cfgJson["domains"] = 8;
    cfgJson["gpus_per_domain"] = 8;
    cfgJson["headline_requests"] = headlineRequests;
    cfgJson["check_requests"] = checkRequests;
    cfgJson["seed"] = seed;
    cfgJson["smoke"] = smoke;
    json.set("config", std::move(cfgJson));

    std::printf("[headline] %llu requests...\n",
                static_cast<unsigned long long>(headlineRequests));
    ClusterRunResult head =
        runClusterSim(clusterConfig(seed, headlineRequests));

    stats::Table t({"events", "cross msgs"});
    t.addRow({std::to_string(head.eventsFired),
              std::to_string(head.crossMessages)});
    bench::show(t);
    stats::Table host({"wall (s)", "events/s"});
    host.addRow({std::to_string(head.wallSeconds),
                 head.wallSeconds > 0.0
                     ? std::to_string(static_cast<double>(
                                          head.eventsFired) /
                                      head.wallSeconds)
                     : "-"});
    std::fprintf(stderr, "%s\n", host.render().c_str());

    json::Object headJson;
    headJson["requests"] = headlineRequests;
    headJson["events_fired"] = head.eventsFired;
    headJson["cross_messages"] = head.crossMessages;
    headJson["stats"] = head.stats;
    json.set("headline", std::move(headJson));

    ClusterSimConfig checkCfg = clusterConfig(seed, checkRequests);
    ClusterRunResult a = runClusterSim(checkCfg);
    ClusterRunResult b = runClusterSim(checkCfg);
    std::string why;
    bool runTwice = equivalentRuns(a, b, &why);
    std::printf("run twice identical: %s%s%s\n",
                runTwice ? "yes" : "NO", runTwice ? "" : " — ",
                why.c_str());

    json.set("run_twice_identical", runTwice);
    json.write();

    std::printf("%s\n", runTwice ? "PASS" : "FAIL");
    return runTwice ? 0 : 1;
}
