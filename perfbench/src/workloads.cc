#include "workloads.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "exp/experiments.hh"
#include "exp/testbed.hh"
#include "model/lora.hh"
#include "report.hh"
#include "serve/batch_engine.hh"
#include "serve/flexgen_engine.hh"
#include "serve/vllm_engine.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace aqua::perfbench {

using aqua::sim::secToTicks;
using aqua::sim::Tick;
using aqua::sim::ticksToSec;
using workload::Request;
using workload::RequestMetrics;

namespace {

// The sizes below keep every workload below saturation (its latencies
// measure service, not a growing queue) and large enough that its
// tails are steady from seed to seed; README.md gives the reasoning.

// cluster: per Codellama-34B CFS consumer, code-summary requests at
// 1.5 req/s (2 req/s saturates it); per Mistral-7B LoRA consumer,
// requests at 2 req/s; per OPT-30B consumer, long prompts issued one
// at a time. Image/audio producers get 1 req/s for the whole span.
constexpr double clusterCodeRate = 1.5;
constexpr std::size_t clusterCodeRequests = 600;
constexpr double clusterLoraRate = 2.0;
constexpr std::size_t clusterLoraRequests = 600;
constexpr int clusterLongPrompts = 2;
constexpr double clusterProducerSec = 450.0;

// chat: 3 servers x 2 GPUs, one Codellama-34B consumer per server;
// 72 users x 3 turns per episode, a session opening every 2 s, and 4
// independent episodes pooled per run.
constexpr std::size_t chatServers = 3;
constexpr std::size_t chatGpusPerServer = 2;
constexpr std::uint32_t chatUsers = 72;
constexpr std::uint32_t chatTurns = 3;
constexpr std::uint32_t chatSystemPrompt = 768;
constexpr double chatSessionGapSec = 2.0;
constexpr std::size_t chatEpisodes = 4;

// bursts: alternating 30 s phases at 1 and 4 req/s (6 req/s bursts
// build a backlog over a long trace).
constexpr double burstQuietRate = 1.0;
constexpr double burstRate = 4.0;
constexpr double burstPhaseSec = 30.0;
constexpr std::size_t burstRequests = 24000;

// Every workload drains well before this; hitting it leaves the
// stragglers unfinished, which the report counts as failures.
constexpr double maxSimSec = 20000.0;

/** Host-time stopwatch accumulating over start/stop pairs. */
class Stopwatch
{
  public:
    void start() { t0 = HostClock::now(); }
    void stop() { total += secondsSince(t0); }
    double seconds() const { return total; }

  private:
    HostClock::time_point t0;
    double total = 0.0;
};

/** Run @p sim in 5 s slices until @p done or the cap. */
template <typename Done>
void
runUntilDone(Tracer *tracer, aqua::sim::Simulation &sim, Done done)
{
    Tick cap = secToTicks(maxSimSec);
    Tick slice = secToTicks(5.0);
    while (sim.now() < cap && !done())
        runSim(tracer, sim, std::min(cap, sim.now() + slice));
}

/**
 * Attempted requests and their outcomes for one set of engines.
 * Keys are request ids offset by a per-simulation base so ids from
 * independent trace builders never collide.
 */
class Ledger
{
  public:
    void
    attempt(const Request &r, std::uint64_t base)
    {
        RequestMetrics m;
        m.id = base + r.id;
        m.arrival = r.arrival;
        attempted[m.id] = m;
        promptTokens += r.promptTokens;
    }

    void
    collect(const std::vector<RequestMetrics> &finished,
            std::uint64_t base, std::vector<std::string> &failures)
    {
        for (RequestMetrics m : finished) {
            m.id += base;
            auto it = attempted.find(m.id);
            if (it == attempted.end() || it->second.finished()) {
                failures.push_back("request " + std::to_string(m.id) +
                                   " finished but was not attempted "
                                   "exactly once");
                continue;
            }
            it->second = m;
        }
    }

    void
    merge(const Ledger &other)
    {
        attempted.insert(other.attempted.begin(), other.attempted.end());
        promptTokens += other.promptTokens;
    }

    std::vector<RequestMetrics>
    all() const
    {
        std::vector<RequestMetrics> out;
        out.reserve(attempted.size());
        for (const auto &[key, m] : attempted)
            out.push_back(m);
        return out;
    }

    std::map<std::uint64_t, RequestMetrics> attempted;
    std::uint64_t promptTokens = 0;
};

/** Output tokens of served requests and the simulated span from t=0
 *  to the last finish. */
struct Throughput
{
    std::uint64_t tokens = 0;
    double spanSec = 0.0;

    double
    rate() const
    {
        return spanSec > 0.0 ? static_cast<double>(tokens) / spanSec
                             : 0.0;
    }
};

Throughput
throughput(const std::vector<RequestMetrics> &requests)
{
    Throughput t;
    Tick last = 0;
    for (const RequestMetrics &m : requests) {
        if (!m.finished() || m.shed)
            continue;
        t.tokens += m.tokensGenerated;
        last = std::max(last, m.finish);
    }
    t.spanSec = ticksToSec(last);
    return t;
}

/**
 * Submits a trace to an engine one arrival at a time: each arrival
 * event schedules the next, so the event queue holds one pending
 * arrival instead of the whole trace. Must outlive the simulation run.
 */
template <typename Engine>
class Feeder
{
  public:
    Feeder(aqua::sim::Simulation &sim, Engine &engine,
           std::vector<Request> trace)
        : sim(sim), engine(engine), trace(std::move(trace))
    {
        if (!this->trace.empty())
            schedule(0);
    }

    Feeder(const Feeder &) = delete;
    Feeder &operator=(const Feeder &) = delete;

  private:
    void
    schedule(std::size_t i)
    {
        sim.queue().schedule(trace[i].arrival, [this, i] {
            engine.submit(trace[i]);
            if (i + 1 < trace.size())
                schedule(i + 1);
        });
    }

    aqua::sim::Simulation &sim;
    Engine &engine;
    std::vector<Request> trace;
};

/** Sums the modeled counters of every layer a workload touched. */
struct Counters
{
    std::uint64_t iterations = 0, swapOuts = 0, swapIns = 0,
                  recomputes = 0;
    std::uint64_t indexHits = 0, indexMisses = 0, cachedTokens = 0;
    std::uint64_t hitLocal = 0, hitPeer = 0, hitDram = 0,
                  hitRemoteServer = 0;
    std::uint64_t peakLiveKv = 0;
    std::uint64_t sigMismatches = 0, clusterSigMismatches = 0,
                  corruptions = 0;
    std::uint64_t borrow = 0, copy = 0;
    std::uint64_t fedStream = 0, fedRecompute = 0, fedCompleted = 0,
                  fedInvalidated = 0, fedRefusals = 0;
    std::uint64_t regLookups = 0, regHits = 0, advertsApplied = 0;
    std::uint64_t restRetries = 0, restFailures = 0;
    std::uint64_t peerBytes = 0, dramBytes = 0;
    std::uint64_t stagedTransfers = 0, coalescedDescriptors = 0;
    std::vector<double> stagingBw, stagingQueueTicks;
    std::uint64_t fabricBytes = 0, fabricTransfers = 0,
                  fabricQueueTicks = 0;
    std::uint64_t events = 0;

    void
    engine(const serve::VllmEngine &e)
    {
        iterations += e.iterations();
        swapOuts += e.swapOutCount();
        swapIns += e.swapInCount();
        recomputes += e.recomputeCount();
        const serve::PrefixIndexStats &is = e.kvCache().prefixStats();
        indexHits += is.hits;
        indexMisses += is.misses;
        const serve::PrefixCacheEngineStats &ps = e.prefixEngineStats();
        cachedTokens += ps.cachedTokens;
        hitLocal += ps.hitTokensLocal;
        hitPeer += ps.hitTokensRemote;
        hitDram += ps.hitTokensDram;
        hitRemoteServer += ps.hitTokensRemoteServer;
        sigMismatches += ps.sigMismatches;
        clusterSigMismatches += ps.clusterSigMismatches;
        borrow += ps.borrowAdmissions;
        copy += ps.copyAdmissions;
        fedStream += ps.fedStreamDecisions;
        fedRecompute += ps.fedRecomputeDecisions;
        fedCompleted += ps.fedStreamsCompleted;
        fedInvalidated += ps.fedStreamsInvalidated;
        fedRefusals += ps.fedFetchRefusals;
        corruptions += e.integrityStats().detected;
        peakLiveKv += e.kvCache().peakLiveKvBytes();
    }

    void
    lib(const core::AquaLib &l)
    {
        const core::AquaLibStats &s = l.stats();
        restRetries += s.restRetries;
        restFailures += s.restFailures;
        peerBytes += s.bytesToPeer + s.bytesFromPeer;
        dramBytes += s.bytesToDram + s.bytesFromDram;
        corruptions += s.corruptionsDetected;
        const core::StagingTransferStats &st = l.stagingStats();
        stagedTransfers += st.stagedTransfers;
        coalescedDescriptors += st.coalescedDescriptors;
        const auto &bw = st.effectiveBandwidth.values();
        stagingBw.insert(stagingBw.end(), bw.begin(), bw.end());
        const auto &q = st.queueLatency.values();
        stagingQueueTicks.insert(stagingQueueTicks.end(), q.begin(),
                                 q.end());
    }

    void
    registry(const cluster::PrefixRegistry &r)
    {
        regLookups += r.stats().lookups;
        regHits += r.stats().hits;
    }

    void
    fabric(const hw::Fabric &f)
    {
        fabricBytes += f.stats().bytesMoved;
        fabricTransfers += f.stats().transfers;
        fabricQueueTicks += f.stats().queueTicks;
    }

    void
    into(RunResult &r, std::uint64_t promptTokens) const
    {
        auto ratio = [](double num, double den) {
            return den > 0.0 ? num / den : 0.0;
        };
        auto &L = r.layer;
        L["serve.iterations"] = double(iterations);
        L["serve.swap_outs"] = double(swapOuts);
        L["serve.swap_ins"] = double(swapIns);
        L["serve.recomputes"] = double(recomputes);
        L["serve.prefix_hit_rate"] =
            ratio(double(indexHits), double(indexHits + indexMisses));
        L["serve.cached_token_frac"] =
            ratio(double(cachedTokens), double(promptTokens));
        L["serve.hit_tokens_local"] = double(hitLocal);
        L["serve.hit_tokens_remote_peer"] = double(hitPeer);
        L["serve.hit_tokens_dram"] = double(hitDram);
        L["serve.hit_tokens_remote_server"] = double(hitRemoteServer);
        L["serve.peak_live_kv_gib"] =
            double(peakLiveKv) / double(1ull << 30);
        L["aqua.rest_retries"] = double(restRetries);
        L["aqua.rest_failures"] = double(restFailures);
        L["aqua.peer_byte_frac"] =
            ratio(double(peerBytes), double(peerBytes + dramBytes));
        L["aqua.staging_desc_per_transfer"] =
            ratio(double(coalescedDescriptors), double(stagedTransfers));
        L["aqua.staging_bw_p50_gbps"] =
            tailPercentileValue(stagingBw, 50.0) / 1e9;
        L["aqua.staging_queue_p95_s"] =
            ticksToSec(static_cast<Tick>(
                tailPercentileValue(stagingQueueTicks, 95.0)));
        L["cluster.registry_hit_rate"] =
            ratio(double(regHits), double(regLookups));
        L["cluster.borrow_admissions"] = double(borrow);
        L["cluster.copy_admissions"] = double(copy);
        L["federation.stream_decisions"] = double(fedStream);
        L["federation.recompute_decisions"] = double(fedRecompute);
        L["federation.streams_completed"] = double(fedCompleted);
        L["federation.streams_invalidated"] = double(fedInvalidated);
        L["federation.fetch_refusals"] = double(fedRefusals);
        L["federation.adverts_applied"] = double(advertsApplied);
        L["hw.fabric_bytes"] = double(fabricBytes);
        L["hw.fabric_transfers"] = double(fabricTransfers);
        L["hw.fabric_queue_s"] = ticksToSec(fabricQueueTicks);
        L["sim.events"] = double(events);
        if (sigMismatches || clusterSigMismatches) {
            r.failures.push_back(
                "signature mismatches: offload " +
                std::to_string(sigMismatches) + ", cluster " +
                std::to_string(clusterSigMismatches));
        }
        if (corruptions)
            r.failures.push_back("corrupted payloads detected: " +
                                 std::to_string(corruptions));
    }

    static double
    tailPercentileValue(const std::vector<double> &v, double q)
    {
        return v.empty() ? 0.0 : tailPercentile(v, q, 0).value;
    }
};

std::unique_ptr<core::Informer>
informerFor(const model::ModelSpec &spec)
{
    if (spec.isText())
        return std::make_unique<core::LlmInformer>();
    return std::make_unique<core::BatchInformer>();
}

} // anonymous namespace

std::vector<std::string>
placementViolations(const placer::PlacementInput &input,
                    const placer::Placement &placement,
                    std::uint64_t nodeBudget)
{
    std::vector<std::string> bad;
    const auto &models = input.models;
    if (placement.server.size() != models.size()) {
        bad.push_back("placement does not cover every model");
        return bad;
    }
    std::vector<std::size_t> perServer(input.numServers, 0);
    for (int s : placement.server) {
        if (s < 0 || s >= static_cast<int>(input.numServers))
            bad.push_back("model placed off the cluster");
        else
            ++perServer[s];
    }
    for (std::size_t s = 0; s < perServer.size(); ++s) {
        if (perServer[s] > input.gpusPerServer)
            bad.push_back("server " + std::to_string(s) + " holds " +
                          std::to_string(perServer[s]) + " models");
    }
    std::set<int> consumers, producers;
    for (const placer::Pairing &p : placement.pairs) {
        bool ok = p.consumerModel >= 0 && p.producerModel >= 0 &&
                  p.consumerModel < int(models.size()) &&
                  p.producerModel < int(models.size());
        if (!ok ||
            !models[p.consumerModel].isConsumer() ||
            !models[p.producerModel].isProducer() ||
            placement.server[p.consumerModel] != p.server ||
            placement.server[p.producerModel] != p.server) {
            bad.push_back("pair does not join a consumer and a "
                          "producer on one server");
            continue;
        }
        if (!consumers.insert(p.consumerModel).second)
            bad.push_back("consumer with two producers");
        if (!producers.insert(p.producerModel).second)
            bad.push_back("producer shared by two consumers");
    }
    if (placement.nodesExplored > nodeBudget)
        bad.push_back("placer explored past its node budget");
    // No wall-clock limit: the search ends on the node budget or
    // because it proved optimality, never because the host was slow.
    if (placement.nodesExplored != nodeBudget && !placement.optimal)
        bad.push_back("placer stopped before its node budget without "
                      "proving optimality");
    return bad;
}

RunResult
runCluster(const RunParams &p)
{
    RunResult result;
    Tracer *tracer = p.tracer;
    Stopwatch setup, wall;

    setup.start();
    placer::PlacementInput input =
        exp::makeClusterInput(8, 2, "balanced", clusterInstanceSeed);
    setup.stop();

    placer::Placement placement;
    if (p.setupOnly) {
        if (!p.placement)
            aqua::sim::panic("perfbench: cluster set-up needs a "
                             "placement");
        placement = *p.placement;
    } else {
        opt::MilpOptions milp;
        milp.maxNodes = clusterNodeBudget;
        // AquaPlacer turns 0 into a 30 s wall budget. 11.6 days leaves
        // the node budget as the only limit; larger values overflow
        // the solver's nanosecond deadline.
        milp.maxSeconds = 1e6;
        wall.start();
        auto t0 = HostClock::now();
        placement = placer::AquaPlacer(milp).place(input);
        if (tracer)
            tracer->placeHostSec += secondsSince(t0);
        wall.stop();
        for (const std::string &v :
             placementViolations(input, placement, clusterNodeBudget))
            result.failures.push_back("placement: " + v);
        if (!placement.valid()) {
            result.setupSec = setup.seconds();
            result.wallSec = wall.seconds();
            return result;
        }
    }

    Ledger ledger;
    Counters counters;
    double tokensPerSec = 0.0;

    // Each server is served independently and sequentially, as in
    // exp::runEndToEnd (§6: the 2-GPU servers are building blocks).
    for (std::size_t s = 0; s < input.numServers; ++s) {
        std::vector<int> members;
        for (std::size_t m = 0; m < input.models.size(); ++m) {
            if (placement.server[m] == static_cast<int>(s))
                members.push_back(static_cast<int>(m));
        }
        if (members.empty())
            continue;
        auto localGpu = [&](int model) {
            auto it = std::find(members.begin(), members.end(), model);
            return static_cast<hw::GpuId>(it - members.begin());
        };
        const std::uint64_t base = std::uint64_t(s) << 32;

        setup.start();
        exp::Testbed tb(members.size(), hw::TopologyKind::DirectP2P,
                        p.seed * 1000 + s);
        auto traces = std::make_shared<workload::TraceBuilder>(
            tb.sim().makeRandom());
        if (tracer)
            tracer->countRest(tb.rest().router());
        for (const placer::Pairing &pair : placement.pairs) {
            if (pair.server == static_cast<int>(s))
                tb.assign(localGpu(pair.consumerModel),
                          localGpu(pair.producerModel));
        }

        std::vector<std::unique_ptr<serve::BatchEngine>> producers;
        std::vector<std::unique_ptr<serve::VllmEngine>> llms;
        std::vector<std::unique_ptr<serve::FlexGenEngine>> flexes;
        std::vector<core::AquaLib *> libs;
        Ledger local;
        std::size_t consumerEngines = 0;
        auto onDone = [tracer, base](const RequestMetrics &m) {
            if (tracer)
                tracer->recordRequest(m, base);
        };

        for (int modelIdx : members) {
            const placer::ModelToPlace &m = input.models[modelIdx];
            hw::GpuId gpu = localGpu(modelIdx);
            model::ModelSpec spec = model::presetByName(m.name);
            if (m.isProducer()) {
                if (spec.isText())
                    aqua::sim::panic("perfbench: the balanced split has "
                                     "no LLM producers");
                core::AquaLib &lib =
                    tb.makeAquaLib(gpu, informerFor(spec));
                libs.push_back(&lib);
                auto engine = std::make_unique<serve::BatchEngine>(
                    tb.server(), gpu, spec);
                engine->attachAquaLib(&lib);
                exp::driveTrace(tb.sim(), *engine,
                                traces->interactive(
                                    1.0, static_cast<std::size_t>(
                                             clusterProducerSec)));
                producers.push_back(std::move(engine));
                continue;
            }

            // Consumers offload through AQUA-LIB: to the paired
            // producer's HBM when the placer paired them, else DRAM.
            core::AquaLib &lib = tb.makeAquaLib(gpu);
            libs.push_back(&lib);
            serve::OffloadBackend &backend =
                traced(tracer, tb.makeAquaBackend(lib), tb.sim());
            ++consumerEngines;
            if (spec.name == "OPT-30B") {
                auto engine = std::make_unique<serve::FlexGenEngine>(
                    tb.server(), gpu, spec, backend);
                serve::FlexGenEngine *eng = engine.get();
                // One long prompt outstanding at a time: the next is
                // issued when the previous one finishes.
                auto left = std::make_shared<int>(clusterLongPrompts - 1);
                aqua::sim::Simulation &sim = tb.sim();
                eng->onComplete([=, &sim, &local](
                                    const RequestMetrics &done) {
                    onDone(done);
                    if (*left <= 0)
                        return;
                    --*left;
                    Request next =
                        traces->longPrompt(8000, 2000, sim.now());
                    local.attempt(next, base);
                    sim.queue().schedule(sim.now(), [eng, next] {
                        eng->submit(next);
                    });
                });
                Request first = traces->longPrompt(8000, 2000);
                local.attempt(first, base);
                eng->submit(first);
                flexes.push_back(std::move(engine));
                continue;
            }
            std::vector<Request> trace;
            std::unique_ptr<serve::VllmEngine> engine;
            if (spec.name == "Codellama-34B") {
                engine = std::make_unique<serve::VllmEngine>(
                    tb.server(), gpu, spec,
                    std::make_unique<serve::CfsPolicy>(), backend);
                trace = traces->codeSummary(clusterCodeRate,
                                            clusterCodeRequests);
            } else {
                // Mistral-7B with 30 LoRA adapters, 10 cached.
                serve::VllmEngineConfig ecfg;
                serve::LoraCacheConfig loraCfg;
                loraCfg.capacityBytes = std::uint64_t(10) * (320 << 20);
                ecfg.lora = loraCfg;
                engine = std::make_unique<serve::VllmEngine>(
                    tb.server(), gpu, spec,
                    std::make_unique<serve::FcfsPolicy>(), backend,
                    ecfg,
                    model::synthesizeAdapters(
                        "lora", std::uint64_t(320) << 20, 30));
                trace = traces->lora(clusterLoraRate,
                                     clusterLoraRequests, 30);
            }
            engine->onComplete(onDone);
            if (tracer) {
                engine->onIteration(
                    [tracer](Tick, const std::vector<std::uint64_t> &ids) {
                        tracer->recordIteration(ids.size());
                    });
            }
            for (const Request &r : trace)
                local.attempt(r, base);
            exp::driveTrace(tb.sim(), *engine, trace);
            llms.push_back(std::move(engine));
        }
        setup.stop();
        if (p.setupOnly || consumerEngines == 0)
            continue;

        wall.start();
        auto finishedCount = [&] {
            std::size_t n = 0;
            for (const auto &e : llms)
                n += e->finished().size();
            for (const auto &e : flexes)
                n += e->finished().size();
            return n;
        };
        runUntilDone(tracer, tb.sim(), [&] {
            return finishedCount() >= local.attempted.size();
        });
        wall.stop();

        for (const auto &e : llms) {
            local.collect(e->finished(), base, result.failures);
            counters.engine(*e);
        }
        for (const auto &e : flexes)
            local.collect(e->finished(), base, result.failures);
        for (core::AquaLib *lib : libs)
            counters.lib(*lib);
        counters.events += tb.sim().queue().fired();

        tokensPerSec += throughput(local.all()).rate();
        ledger.merge(local);
    }

    result.setupSec = setup.seconds();
    result.wallSec = wall.seconds();
    if (p.setupOnly)
        return result;
    result.requests = ledger.all();
    // Servers run side by side, so cluster throughput is the sum of
    // per-server rates.
    result.tokensPerSec = tokensPerSec;
    counters.into(result, ledger.promptTokens);

    std::size_t consumers = 0;
    for (const placer::ModelToPlace &m : input.models)
        consumers += m.isConsumer();
    auto &L = result.layer;
    L["placer.nodes"] = double(placement.nodesExplored);
    L["placer.objective_gb"] = placement.objective * 1e-9;
    L["placer.greedy_gap_gb"] =
        (placer::greedyPlace(input).objective - placement.objective) *
        1e-9;
    L["placer.paired_frac"] =
        consumers ? double(placement.pairs.size()) / double(consumers)
                  : 0.0;
    result.placement = placement;
    return result;
}

RunResult
runChat(const RunParams &p)
{
    RunResult result;
    Tracer *tracer = p.tracer;
    Stopwatch setup, wall;
    Ledger ledger;
    Counters counters;
    std::uint64_t tokens = 0;
    double span = 0.0;

    // Independent episodes, each a fresh cluster with its own seed,
    // pool enough requests for stable tails; one long episode would
    // not stay in the same regime.
    for (std::size_t episode = 0; episode < chatEpisodes; ++episode) {
        const std::uint64_t base = std::uint64_t(episode) << 32;

        // As exp::runFederation's chatbot cell: a shared system
        // prompt, turns hopping servers, CFS, prefix cache, cluster
        // registry, federation directory, the fabric and DRAM offload.
        setup.start();
        exp::MultiServerCluster cluster(chatServers, chatGpusPerServer,
                                        p.seed * 1000 + episode);
        std::vector<cluster::PrefixRegistry *> registries;
        for (std::size_t i = 0; i < chatServers; ++i)
            registries.push_back(
                &cluster.server(i).makePrefixRegistry());
        federation::DirectoryConfig dirCfg;
        dirCfg.maxRemoteConsumers = 2;
        cluster.makeFederation(dirCfg);
        cluster.startAntiEntropy(secToTicks(maxSimSec));
        if (tracer) {
            for (std::size_t i = 0; i < chatServers; ++i)
                tracer->countRest(cluster.server(i).rest().router());
        }

        std::vector<std::unique_ptr<serve::VllmEngine>> engines;
        std::vector<core::AquaLib *> libs;
        for (std::size_t i = 0; i < chatServers; ++i) {
            exp::Testbed &tb = cluster.server(i);
            serve::OffloadBackend &backend =
                traced(tracer, tb.makeDramBackend(0), cluster.sim());
            serve::VllmEngineConfig cfg;
            cfg.prefixCache = true;
            cfg.clusterPrefix = true;
            cfg.clusterBorrowMaxBlocks = 4;
            cfg.federation = true;
            cfg.federationSafetyFactor = 1.2;
            engines.push_back(std::make_unique<serve::VllmEngine>(
                tb.server(), 0, model::presetByName("Codellama-34B"),
                std::make_unique<serve::CfsPolicy>(), backend, cfg));
            core::AquaLib &lib = tb.makeAquaLib(0);
            libs.push_back(&lib);
            engines.back()->attachClusterPrefix(registries[i], &lib);
            engines.back()->attachFederation(
                &cluster.fabric(), static_cast<std::uint32_t>(i), &lib);
            if (tracer) {
                engines.back()->onIteration(
                    [tracer](Tick,
                             const std::vector<std::uint64_t> &ids) {
                        tracer->recordIteration(ids.size());
                    });
            }
        }

        Ledger local;
        workload::TraceBuilder traces(cluster.sim().makeRandom());
        struct Turn
        {
            std::uint32_t user, turn, prompt;
        };
        std::map<std::uint64_t, Turn> turns;
        auto submit = [&](const Request &r, std::size_t engine) {
            turns[r.id] = {r.userId, r.turn, r.promptTokens};
            local.attempt(r, base);
            serve::VllmEngine &eng = *engines[engine % chatServers];
            cluster.sim().queue().schedule(r.arrival,
                                           [&eng, r] { eng.submit(r); });
        };
        // Sessions open one every chatSessionGapSec (plus the first
        // turn's own 0-2 s jitter) instead of all at once, so first
        // turns do not queue behind each other and live KV stays
        // below the pool.
        Tick opens = 0;
        for (Request r :
             traces.chatbotFirstTurn(chatUsers, 0, chatSystemPrompt)) {
            r.arrival += opens;
            opens += secToTicks(chatSessionGapSec);
            submit(r, r.userId);
        }
        // Each user waits for the reply, thinks (exp, mean 3 s), and
        // sends the next turn to another server, so the re-sent
        // history is only reachable through the federation directory.
        auto followUp = [&](const RequestMetrics &m) {
            if (tracer)
                tracer->recordRequest(m, base);
            const Turn t = turns.at(m.id);
            if (m.shed || t.turn + 1 >= chatTurns)
                return;
            Request next = traces.chatbotFollowUp(
                t.user, t.turn + 1, cluster.sim().now(),
                t.prompt + m.tokensGenerated, chatSystemPrompt);
            submit(next, std::size_t(t.user) + t.turn + 1);
        };
        for (auto &engine : engines)
            engine->onComplete(followUp);
        setup.stop();
        if (p.setupOnly)
            continue;

        wall.start();
        const std::size_t expected = std::size_t(chatUsers) * chatTurns;
        runUntilDone(tracer, cluster.sim(), [&] {
            std::size_t done = 0;
            for (const auto &engine : engines)
                done += engine->finished().size();
            return done >= expected;
        });
        wall.stop();

        for (const auto &engine : engines) {
            local.collect(engine->finished(), base, result.failures);
            counters.engine(*engine);
        }
        for (core::AquaLib *lib : libs)
            counters.lib(*lib);
        for (std::size_t i = 0; i < chatServers; ++i) {
            counters.registry(*registries[i]);
            counters.advertsApplied +=
                cluster.directory(i).stats().advertsApplied;
        }
        counters.fabric(cluster.fabric());
        counters.events += cluster.sim().queue().fired();
        Throughput t = throughput(local.all());
        tokens += t.tokens;
        span += t.spanSec;
        ledger.merge(local);
    }

    result.setupSec = setup.seconds();
    result.wallSec = wall.seconds();
    if (p.setupOnly)
        return result;
    result.requests = ledger.all();
    result.tokensPerSec = span > 0.0 ? double(tokens) / span : 0.0;
    counters.into(result, ledger.promptTokens);
    return result;
}

RunResult
runBursts(const RunParams &p)
{
    RunResult result;
    Tracer *tracer = p.tracer;
    Stopwatch setup, wall;

    // The Fig. 9 setup: Codellama-34B under CFS on gpu 0, offloading
    // through AQUA-LIB to a Kandinsky donor on gpu 1; prefix cache off.
    setup.start();
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P, p.seed);
    if (tracer)
        tracer->countRest(tb.rest().router());
    model::ModelSpec producerSpec = model::presetByName("Kandinsky");
    core::AquaLib &producerLib =
        tb.makeAquaLib(1, informerFor(producerSpec));
    core::AquaLib &consumerLib = tb.makeAquaLib(0);
    tb.assign(0, 1);
    serve::OffloadBackend &backend =
        traced(tracer, tb.makeAquaBackend(consumerLib), tb.sim());
    serve::VllmEngine engine(tb.server(), 0,
                             model::presetByName("Codellama-34B"),
                             std::make_unique<serve::CfsPolicy>(),
                             backend);
    serve::BatchEngine producer(tb.server(), 1, producerSpec);
    producer.attachAquaLib(&producerLib);

    workload::TraceBuilder producerTraces(tb.sim().makeRandom());
    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<Request> trace = traces.bursty(
        burstQuietRate, burstRate, burstPhaseSec, burstRequests);
    // The donor stays busy (1 req/s) for the whole consumer trace.
    double horizon = ticksToSec(trace.back().arrival) + 120.0;
    Feeder producerFeed(tb.sim(), producer,
                        producerTraces.interactive(
                            1.0, static_cast<std::size_t>(horizon)));
    Ledger ledger;
    for (const Request &r : trace)
        ledger.attempt(r, 0);
    Feeder consumerFeed(tb.sim(), engine, trace);
    // Completion hooks run as simulator events, so bare and traced
    // runs both install one to fire the same events.
    engine.onComplete([tracer](const RequestMetrics &m) {
        if (tracer)
            tracer->recordRequest(m, 0);
    });
    if (tracer) {
        engine.onIteration(
            [tracer](Tick, const std::vector<std::uint64_t> &ids) {
                tracer->recordIteration(ids.size());
            });
    }
    setup.stop();
    result.setupSec = setup.seconds();
    if (p.setupOnly)
        return result;

    wall.start();
    runUntilDone(tracer, tb.sim(), [&] {
        return engine.finished().size() >= trace.size();
    });
    wall.stop();

    Counters counters;
    ledger.collect(engine.finished(), 0, result.failures);
    counters.engine(engine);
    counters.lib(consumerLib);
    counters.lib(producerLib);
    counters.events = tb.sim().queue().fired();

    result.requests = ledger.all();
    result.tokensPerSec = throughput(result.requests).rate();
    result.wallSec = wall.seconds();
    counters.into(result, ledger.promptTokens);
    return result;
}

std::uint64_t
modeledDigest(const RunResult &r)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    auto mixDouble = [&mix](double d) {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof d);
        std::memcpy(&bits, &d, sizeof d);
        mix(bits);
    };
    for (const RequestMetrics &m : r.requests) {
        mix(m.id);
        mix(m.arrival);
        mix(m.admitted);
        mix(m.firstToken);
        mix(m.finish);
        mix(m.tokensGenerated);
        mix(m.shed);
    }
    mixDouble(r.tokensPerSec);
    for (const auto &[name, value] : r.layer) {
        for (char c : name)
            mix(static_cast<unsigned char>(c));
        mixDouble(value);
    }
    if (r.placement) {
        for (int s : r.placement->server)
            mix(static_cast<std::uint64_t>(s));
        for (const placer::Pairing &pair : r.placement->pairs) {
            mix(static_cast<std::uint64_t>(pair.consumerModel));
            mix(static_cast<std::uint64_t>(pair.producerModel));
        }
        mix(r.placement->nodesExplored);
    }
    return h;
}

} // namespace aqua::perfbench
