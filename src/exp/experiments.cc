#include "exp/experiments.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "exp/testbed.hh"
#include "fault/fault.hh"
#include "model/perf_model.hh"
#include "serve/batch_engine.hh"
#include "serve/flexgen_engine.hh"
#include "serve/vllm_engine.hh"
#include "sim/logging.hh"
#include "tier/park_agent.hh"
#include "workload/generator.hh"

namespace aqua::exp {

using namespace aqua::sim;
using model::ModelSpec;
using model::presetByName;

const char *
serveModeName(ServeMode mode)
{
    switch (mode) {
      case ServeMode::VllmBaseline: return "vllm";
      case ServeMode::CfsDram: return "vllm+cfs";
      case ServeMode::CfsAqua: return "aqua";
    }
    return "?";
}

const char *
offloadModeName(OffloadMode mode)
{
    switch (mode) {
      case OffloadMode::Dram: return "dram";
      case OffloadMode::Aqua: return "aqua";
      case OffloadMode::AquaUnstaged: return "aqua-unstaged";
    }
    return "?";
}

namespace {

/** Run the queue in slices until @p done or the cap is reached. */
template <typename DonePredicate>
void
runUntilDone(Simulation &sim, double maxSimSeconds, DonePredicate done)
{
    Tick cap = secToTicks(maxSimSeconds);
    Tick slice = secToTicks(5.0);
    while (sim.now() < cap && !done())
        sim.runUntil(std::min(cap, sim.now() + slice));
}

/**
 * A producer workload generator and engine bundle: either a
 * compute-bound image/audio engine fed Parti-style arrivals, or an
 * LLM producer serving a light ShareGPT load (Table 2).
 */
struct Producer
{
    std::unique_ptr<serve::BatchEngine> batch;
    std::unique_ptr<serve::VllmEngine> llm;
    std::vector<workload::Request> trace;

    double
    throughput() const
    {
        return batch ? batch->throughput() : 0.0;
    }
};

Producer
makeProducer(Testbed &tb, hw::GpuId gpu, const std::string &name,
             double ratePerSec, double horizonSec,
             core::AquaLib *lib)
{
    Producer p;
    ModelSpec spec = presetByName(name);
    workload::TraceBuilder traces(tb.sim().makeRandom());
    auto count = static_cast<std::size_t>(horizonSec * ratePerSec);
    if (spec.isText()) {
        serve::VllmEngineConfig cfg;
        cfg.informEveryIters = 4;
        auto &backend = tb.makeDramBackend(gpu);
        p.llm = std::make_unique<serve::VllmEngine>(
            tb.server(), gpu, spec,
            std::make_unique<serve::FcfsPolicy>(), backend, cfg);
        if (lib)
            p.llm->attachAquaLib(lib);
        p.trace = traces.interactive(ratePerSec, count);
        driveTrace(tb.sim(), *p.llm, p.trace);
    } else {
        p.batch = std::make_unique<serve::BatchEngine>(tb.server(),
                                                       gpu, spec);
        if (lib)
            p.batch->attachAquaLib(lib);
        p.trace = traces.interactive(ratePerSec, count);
        driveTrace(tb.sim(), *p.batch, p.trace);
    }
    return p;
}

std::unique_ptr<core::Informer>
makeInformerFor(const ModelSpec &spec)
{
    if (spec.isText())
        return std::make_unique<core::LlmInformer>();
    return std::make_unique<core::BatchInformer>();
}

/** Sort metrics by request id (arrival/issue order). */
void
sortById(std::vector<workload::RequestMetrics> &metrics)
{
    std::sort(metrics.begin(), metrics.end(),
              [](const auto &a, const auto &b) { return a.id < b.id; });
}

/** Collect the prefix-cache counters of a consumer engine. */
PrefixCacheReport
prefixReportFrom(const serve::VllmEngine &engine)
{
    PrefixCacheReport r;
    const serve::PrefixIndexStats &is = engine.kvCache().prefixStats();
    r.hitRate = is.hitRate();
    r.hits = is.hits;
    r.misses = is.misses;
    r.partialHits = is.partialHits;
    r.collisions = is.collisions;
    r.evictions = is.evictions;
    const serve::PrefixCacheEngineStats &es = engine.prefixEngineStats();
    r.cachedTokens = es.cachedTokens;
    r.cowForks = es.cowForks;
    r.dedupSavedBytes = es.dedupSavedBytes;
    r.residentReuseBytes = es.residentReuseBytes;
    r.sigMismatches = es.sigMismatches;
    r.hitTokensLocal = es.hitTokensLocal;
    r.hitTokensRemote = es.hitTokensRemote;
    r.hitTokensDram = es.hitTokensDram;
    r.hitTokensRemoteServer = es.hitTokensRemoteServer;
    return r;
}

} // anonymous namespace

CfsExperimentResult
runCfsExperiment(const CfsExperimentConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;
    constexpr hw::GpuId producerGpu = 1;

    ModelSpec consumerSpec = presetByName(cfg.consumerModel);
    ModelSpec producerSpec = presetByName(cfg.producerModel);

    core::AquaLib *consumerLib = nullptr;
    core::AquaLib *producerLib = nullptr;
    serve::OffloadBackend *backend = nullptr;
    if (cfg.mode == ServeMode::CfsAqua) {
        producerLib = &tb.makeAquaLib(producerGpu,
                                      makeInformerFor(producerSpec));
        consumerLib = &tb.makeAquaLib(consumerGpu);
        tb.assign(consumerGpu, producerGpu);
        backend = &tb.makeAquaBackend(*consumerLib);
    } else {
        backend = &tb.makeDramBackend(consumerGpu);
    }

    std::unique_ptr<serve::SchedulerPolicy> policy;
    if (cfg.mode == ServeMode::VllmBaseline)
        policy = std::make_unique<serve::FcfsPolicy>();
    else
        policy = std::make_unique<serve::CfsPolicy>();

    serve::VllmEngineConfig engineCfg;
    engineCfg.cfsSliceTokens = cfg.sliceTokens;
    serve::VllmEngine consumer(tb.server(), consumerGpu, consumerSpec,
                               std::move(policy), *backend, engineCfg);

    Producer producer = makeProducer(tb, producerGpu,
                                     cfg.producerModel, 1.0,
                                     cfg.maxSimSeconds, producerLib);

    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<workload::Request> trace =
        traces.codeSummary(cfg.ratePerSec, cfg.numRequests);
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == cfg.numRequests;
    });

    CfsExperimentResult result;
    result.metrics = consumer.finished();
    sortById(result.metrics);
    result.producerThroughput = producer.throughput();
    result.consumerSwapOuts = consumer.swapOutCount();
    result.consumerSwapIns = consumer.swapInCount();
    return result;
}

LongPromptResult
runLongPrompt(const LongPromptConfig &cfg)
{
    std::size_t gpus = 2 * cfg.pairs;
    hw::TopologyKind kind = cfg.pairs > 1
                                ? hw::TopologyKind::NvSwitch
                                : hw::TopologyKind::DirectP2P;
    Testbed tb(gpus, kind, cfg.seed);

    ModelSpec consumerSpec = presetByName(cfg.consumerModel);
    ModelSpec producerSpec = presetByName(cfg.producerModel);

    std::vector<std::unique_ptr<serve::FlexGenEngine>> consumers;
    std::vector<Producer> producers;
    workload::TraceBuilder traces(tb.sim().makeRandom());

    for (std::size_t i = 0; i < cfg.pairs; ++i) {
        auto consumerGpu = static_cast<hw::GpuId>(2 * i);
        auto producerGpu = static_cast<hw::GpuId>(2 * i + 1);

        serve::OffloadBackend *backend = nullptr;
        core::AquaLib *producerLib = nullptr;
        if (cfg.mode != OffloadMode::Dram) {
            core::AquaLibConfig libCfg;
            libCfg.useStaging = cfg.mode != OffloadMode::AquaUnstaged;
            producerLib = &tb.makeAquaLib(
                producerGpu, makeInformerFor(producerSpec), libCfg);
            core::AquaLib &consumerLib =
                tb.makeAquaLib(consumerGpu, nullptr, libCfg);
            hw::GpuId target = cfg.sharedProducer
                                   ? static_cast<hw::GpuId>(1)
                                   : producerGpu;
            tb.assign(consumerGpu, target);
            backend = &tb.makeAquaBackend(consumerLib);
        } else {
            backend = &tb.makeDramBackend(consumerGpu);
        }

        producers.push_back(makeProducer(tb, producerGpu,
                                         cfg.producerModel, 1.0,
                                         cfg.durationSec,
                                         producerLib));

        consumers.push_back(std::make_unique<serve::FlexGenEngine>(
            tb.server(), consumerGpu, consumerSpec, *backend));
        // Queue enough prompts to outlast the measurement window.
        for (int n = 0; n < 40; ++n) {
            workload::Request r =
                traces.longPrompt(cfg.promptTokens, 2000);
            tb.sim().queue().schedule(r.arrival, [&, r,
                                                  i] {
                consumers[i]->submit(r);
            });
        }
    }

    tb.sim().runUntil(secToTicks(cfg.durationSec));

    LongPromptResult result;
    for (auto &consumer : consumers) {
        result.tokensPerConsumer.push_back(consumer->totalTokens());
        result.totalTokens += consumer->totalTokens();
    }
    return result;
}

LoraExperimentResult
runLoraExperiment(const LoraExperimentConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;
    constexpr hw::GpuId producerGpu = 1;

    ModelSpec consumerSpec = presetByName(cfg.baseModel);
    ModelSpec producerSpec = presetByName(cfg.producerModel);

    core::AquaLib *producerLib = nullptr;
    serve::OffloadBackend *backend = nullptr;
    if (cfg.mode != OffloadMode::Dram) {
        core::AquaLibConfig libCfg;
        libCfg.useStaging = cfg.mode != OffloadMode::AquaUnstaged;
        producerLib = &tb.makeAquaLib(producerGpu,
                                      makeInformerFor(producerSpec),
                                      libCfg);
        core::AquaLib &consumerLib =
            tb.makeAquaLib(consumerGpu, nullptr, libCfg);
        tb.assign(consumerGpu, producerGpu);
        backend = &tb.makeAquaBackend(consumerLib);
    } else {
        backend = &tb.makeDramBackend(consumerGpu);
    }

    // Give the producer a head start so its donation is in place
    // before the adapter store is populated.
    Producer producer = makeProducer(tb, producerGpu,
                                     cfg.producerModel, 1.0,
                                     cfg.maxSimSeconds, producerLib);
    tb.sim().runUntil(secToTicks(1.0));

    serve::VllmEngineConfig engineCfg;
    serve::LoraCacheConfig loraCfg;
    loraCfg.capacityBytes = cfg.cacheBytes;
    engineCfg.lora = loraCfg;
    serve::VllmEngine consumer(
        tb.server(), consumerGpu, consumerSpec,
        std::make_unique<serve::FcfsPolicy>(), *backend, engineCfg,
        model::synthesizeAdapters("lora", cfg.adapterBytes,
                                  cfg.numAdapters));

    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<workload::Request> trace =
        traces.lora(cfg.ratePerSec, cfg.numRequests, cfg.numAdapters,
                    tb.sim().now());
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == cfg.numRequests;
    });

    LoraExperimentResult result;
    result.metrics = consumer.finished();
    sortById(result.metrics);
    if (consumer.loraCache()) {
        result.cacheHits = consumer.loraCache()->hits();
        result.cacheMisses = consumer.loraCache()->misses();
    }
    return result;
}

ElasticExperimentResult
runElasticExperiment(const ElasticExperimentConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;
    constexpr hw::GpuId producerGpu = 1;

    ModelSpec producerSpec = presetByName(cfg.producerModel);
    ModelSpec consumerSpec = presetByName(cfg.consumerModel);

    core::AquaLib *producerLib = nullptr;
    if (cfg.withAqua) {
        producerLib =
            &tb.makeAquaLib(producerGpu,
                            std::make_unique<core::LlmInformer>());
    }

    // The producer LLM serves the interactive load.
    serve::VllmEngineConfig prodCfg;
    prodCfg.informEveryIters = 4;
    auto &prodBackend = tb.makeDramBackend(producerGpu);
    serve::VllmEngine producer(tb.server(), producerGpu, producerSpec,
                               std::make_unique<serve::FcfsPolicy>(),
                               prodBackend, prodCfg);
    if (producerLib)
        producer.attachAquaLib(producerLib);

    // Producer traffic: 100 requests at 1 req/s from the consumer
    // start; 250 requests at 5 req/s from phase 2.
    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<workload::Request> phase1 = traces.interactive(
        1.0, 100, secToTicks(cfg.consumerStartSec));
    std::vector<workload::Request> phase2 = traces.interactive(
        5.0, 250, secToTicks(cfg.phase2StartSec));
    driveTrace(tb.sim(), producer, phase1);
    driveTrace(tb.sim(), producer, phase2);

    // The consumer runs long-prompt inference with AQUA only.
    std::unique_ptr<serve::FlexGenEngine> consumer;
    if (cfg.withAqua) {
        core::AquaLib &consumerLib = tb.makeAquaLib(consumerGpu);
        tb.assign(consumerGpu, producerGpu);
        auto &backend = tb.makeAquaBackend(consumerLib);
        consumer = std::make_unique<serve::FlexGenEngine>(
            tb.server(), consumerGpu, consumerSpec, backend);
        for (int n = 0; n < 40; ++n) {
            workload::Request r = traces.longPrompt(
                8000, 2000, secToTicks(cfg.consumerStartSec));
            tb.sim().queue().schedule(r.arrival, [&, r] {
                consumer->submit(r);
            });
        }
    }

    tb.sim().runUntil(secToTicks(cfg.durationSec));

    ElasticExperimentResult result;
    Tick bucket = secToTicks(10.0);
    result.producerFreeMemory = producer.freeMemorySeries()
        .resampleMean(bucket, 0, secToTicks(cfg.durationSec));
    if (consumer) {
        result.consumerThroughput = consumer->tokenSeries()
            .resampleSum(bucket, 0, secToTicks(cfg.durationSec));
        result.consumerTokens = consumer->totalTokens();
    }
    result.producerMetrics = producer.finished();
    sortById(result.producerMetrics);
    return result;
}

std::vector<ContentionPoint>
contentionSweep(const std::string &modelName,
                const std::vector<std::uint32_t> &batchSizes)
{
    ModelSpec spec = presetByName(modelName);
    hw::GpuSpec gpu = hw::a100_80g();
    model::PerfModel pm(spec, gpu);

    std::vector<ContentionPoint> out;
    for (std::uint32_t batch : batchSizes) {
        ContentionPoint point;
        point.batchSize = batch;
        if (spec.isText()) {
            // Each sequence holds a mid-generation context (~1k
            // tokens, ShareGPT-scale prompt plus output).
            std::uint64_t kvPerSeq = spec.kvBytes(1024);
            std::uint64_t kvTotal = kvPerSeq * batch;
            std::uint64_t footprint = pm.memoryFootprint(batch, kvTotal);
            std::uint64_t resident = kvTotal;
            double penalty_sec = 0.0;
            if (footprint > gpu.hbmBytes) {
                // Overcommitted KV spills to DRAM and streams back
                // over PCIe every iteration: throughput collapses.
                std::uint64_t excess = footprint - gpu.hbmBytes;
                penalty_sec = static_cast<double>(excess) /
                              gpu.pcieBandwidth;
                resident = kvTotal > excess ? kvTotal - excess : 0;
                point.freeMemoryGb = 0.0;
            } else {
                point.freeMemoryGb =
                    static_cast<double>(gpu.hbmBytes - footprint) /
                    1e9;
            }
            Tick iter = pm.decodeStepTime(batch, resident) +
                        secToTicks(penalty_sec);
            point.throughput =
                static_cast<double>(batch) / ticksToSec(iter);
        } else {
            std::uint64_t footprint = pm.memoryFootprint(batch, 0);
            point.freeMemoryGb = footprint > gpu.hbmBytes
                ? 0.0
                : static_cast<double>(gpu.hbmBytes - footprint) / 1e9;
            point.throughput = pm.batchThroughput(batch);
        }
        out.push_back(point);
    }
    return out;
}

ChatbotResult
runChatbot(const ChatbotConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;
    constexpr hw::GpuId producerGpu = 1;

    ModelSpec consumerSpec = presetByName(cfg.consumerModel);
    ModelSpec producerSpec = presetByName(cfg.producerModel);

    core::AquaLib *producerLib = nullptr;
    serve::OffloadBackend *backend = nullptr;
    if (cfg.mode == ServeMode::CfsAqua) {
        producerLib = &tb.makeAquaLib(producerGpu,
                                      makeInformerFor(producerSpec));
        core::AquaLib &consumerLib = tb.makeAquaLib(consumerGpu);
        tb.assign(consumerGpu, producerGpu);
        backend = &tb.makeAquaBackend(consumerLib);
    } else {
        backend = &tb.makeDramBackend(consumerGpu);
    }

    std::unique_ptr<serve::SchedulerPolicy> policy;
    if (cfg.mode == ServeMode::VllmBaseline)
        policy = std::make_unique<serve::FcfsPolicy>();
    else
        policy = std::make_unique<serve::CfsPolicy>();

    serve::VllmEngineConfig engineCfg;
    engineCfg.prefixCache = cfg.prefixCache;
    serve::VllmEngine consumer(tb.server(), consumerGpu, consumerSpec,
                               std::move(policy), *backend, engineCfg);
    Producer producer = makeProducer(tb, producerGpu,
                                     cfg.producerModel, 1.0,
                                     cfg.maxSimSeconds, producerLib);

    // The chatbot driver: each user re-issues a prompt after the
    // response to the previous one arrives (§8).
    auto traces = std::make_shared<workload::TraceBuilder>(
        tb.sim().makeRandom());
    auto turnOf = std::make_shared<std::map<std::uint64_t,
                                            std::uint32_t>>();
    auto userOf = std::make_shared<std::map<std::uint64_t,
                                            std::uint32_t>>();
    auto promptOf = std::make_shared<std::map<std::uint64_t,
                                              std::uint32_t>>();

    std::vector<workload::Request> first =
        traces->chatbotFirstTurn(cfg.users, 0, cfg.systemPromptTokens);
    for (const workload::Request &r : first) {
        (*turnOf)[r.id] = 0;
        (*userOf)[r.id] = r.userId;
        (*promptOf)[r.id] = r.promptTokens;
    }
    driveTrace(tb.sim(), consumer, first);

    std::uint32_t turns = cfg.turns;
    std::uint32_t sysTokens = cfg.systemPromptTokens;
    consumer.onComplete([&, traces, turnOf, userOf, promptOf,
                         sysTokens](const workload::RequestMetrics &m) {
        std::uint32_t turn = (*turnOf)[m.id];
        std::uint32_t user = (*userOf)[m.id];
        if (turn + 1 >= turns)
            return;
        // The next turn carries the whole conversation as history.
        std::uint32_t history = (*promptOf)[m.id] + m.tokensGenerated;
        workload::Request next = traces->chatbotFollowUp(
            user, turn + 1, tb.sim().now(), history, sysTokens);
        (*turnOf)[next.id] = turn + 1;
        (*userOf)[next.id] = user;
        (*promptOf)[next.id] = next.promptTokens;
        tb.sim().queue().schedule(next.arrival, [&consumer, next] {
            consumer.submit(next);
        });
    });

    std::size_t expected = std::size_t(cfg.users) * cfg.turns;
    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == expected;
    });

    ChatbotResult result;
    for (const workload::RequestMetrics &m : consumer.finished()) {
        ChatbotResult::TurnMetric tm;
        tm.turn = (*turnOf)[m.id];
        tm.metrics = m;
        result.metrics.push_back(tm);
    }
    std::sort(result.metrics.begin(), result.metrics.end(),
              [](const auto &a, const auto &b) {
                  return a.metrics.id < b.metrics.id;
              });
    result.prefix = prefixReportFrom(consumer);
    result.peakLiveKvBytes = consumer.kvCache().peakLiveKvBytes();
    result.offloadWriteBytes = consumer.offloadWriteBytes();
    result.offloadReadBytes = consumer.offloadReadBytes();
    double elapsed = ticksToSec(tb.sim().now());
    result.tokensPerSec =
        elapsed > 0.0
            ? static_cast<double>(consumer.totalTokens()) / elapsed
            : 0.0;
    return result;
}

PrefixAblationResult
runPrefixAblation(const PrefixAblationConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;
    constexpr hw::GpuId producerGpu = 1;

    ModelSpec consumerSpec = presetByName(cfg.consumerModel);
    ModelSpec producerSpec = presetByName(cfg.producerModel);

    core::AquaLib *producerLib = nullptr;
    serve::OffloadBackend *backend = nullptr;
    if (cfg.mode == ServeMode::CfsAqua) {
        producerLib = &tb.makeAquaLib(producerGpu,
                                      makeInformerFor(producerSpec));
        core::AquaLib &consumerLib = tb.makeAquaLib(consumerGpu);
        tb.assign(consumerGpu, producerGpu);
        backend = &tb.makeAquaBackend(consumerLib);
    } else {
        backend = &tb.makeDramBackend(consumerGpu);
    }

    std::unique_ptr<serve::SchedulerPolicy> policy;
    if (cfg.mode == ServeMode::VllmBaseline)
        policy = std::make_unique<serve::FcfsPolicy>();
    else
        policy = std::make_unique<serve::CfsPolicy>();

    serve::VllmEngineConfig engineCfg;
    engineCfg.prefixCache = cfg.prefixCache;
    engineCfg.maxCacheShare = cfg.maxCacheShare;
    engineCfg.prefixEviction = cfg.eviction;
    engineCfg.kvPrecision = cfg.kvPrecision;
    engineCfg.sparseReadFraction = cfg.sparseReadFraction;
    serve::VllmEngine consumer(tb.server(), consumerGpu, consumerSpec,
                               std::move(policy), *backend, engineCfg);
    Producer producer = makeProducer(tb, producerGpu,
                                     cfg.producerModel, 1.0,
                                     cfg.maxSimSeconds, producerLib);

    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<workload::Request> trace = traces.sharedPrefix(
        cfg.ratePerSec, cfg.numRequests, cfg.prefixTokens,
        cfg.numGroups);
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == trace.size();
    });

    PrefixAblationResult result;
    result.metrics = consumer.finished();
    sortById(result.metrics);
    result.prefix = prefixReportFrom(consumer);
    result.peakLiveKvBytes = consumer.kvCache().peakLiveKvBytes();
    result.offloadWriteBytes = consumer.offloadWriteBytes();
    result.offloadReadBytes = consumer.offloadReadBytes();
    result.swapOuts = consumer.swapOutCount();
    result.swapIns = consumer.swapInCount();
    double elapsed = ticksToSec(tb.sim().now());
    result.tokensPerSec =
        elapsed > 0.0
            ? static_cast<double>(consumer.totalTokens()) / elapsed
            : 0.0;
    return result;
}

ClusterPrefixResult
runClusterPrefix(const ClusterPrefixConfig &cfg)
{
    std::size_t n = std::max<std::size_t>(1, cfg.consumers);
    Testbed tb(std::max<std::size_t>(n, 2), hw::TopologyKind::NvSwitch,
               cfg.seed);
    ModelSpec spec = presetByName(cfg.consumerModel);

    cluster::PrefixRegistry *registry = nullptr;
    if (cfg.registry) {
        registry = &tb.makePrefixRegistry();
        if (cfg.traceLog)
            registry->setTraceLog(cfg.traceLog);
    }

    std::vector<std::unique_ptr<serve::VllmEngine>> engines;
    std::vector<core::AquaLib *> engineLibs;
    for (std::size_t i = 0; i < n; ++i) {
        auto gpu = static_cast<hw::GpuId>(i);
        serve::DramBackend &backend = tb.makeDramBackend(gpu);
        serve::VllmEngineConfig engineCfg;
        engineCfg.prefixCache = true;
        engineCfg.prefixEviction = cfg.eviction;
        engineCfg.clusterPrefix = cfg.registry;
        engineCfg.clusterBorrowMaxBlocks = cfg.borrowMaxBlocks;
        engineCfg.kvPrecision = cfg.kvPrecision;
        engineCfg.sparseReadFraction = cfg.sparseReadFraction;
        engines.push_back(std::make_unique<serve::VllmEngine>(
            tb.server(), gpu, spec,
            std::make_unique<serve::CfsPolicy>(), backend, engineCfg));
        if (registry) {
            core::AquaLib &lib = tb.makeAquaLib(gpu);
            engineLibs.push_back(&lib);
            engines.back()->attachClusterPrefix(registry, &lib);
        }
        if (cfg.traceLog)
            engines.back()->setTraceLog(cfg.traceLog);
    }

    // The chaos cell permanently kills gpu 0 — the preamble chain's
    // home, since the first request lands there — once the drain
    // margin has idled its engine, and audits recovery on survivors.
    Tick chaosAt = secToTicks(cfg.chaosAtSec);
    Tick avoidGpu0After =
        cfg.chaosAtSec > cfg.chaosDrainSec
            ? secToTicks(cfg.chaosAtSec - cfg.chaosDrainSec)
            : 0;
    bool chaos = cfg.chaos && n > 1;
    std::unique_ptr<fault::FaultInjector> inj;
    if (chaos) {
        inj = std::make_unique<fault::FaultInjector>(
            tb.sim(), tb.server().topology(), tb.rest().router());
        for (core::AquaLib *lib : engineLibs)
            inj->registerLib(*lib);
        if (cfg.traceLog)
            inj->setTraceLog(cfg.traceLog);
        if (registry) {
            inj->setGpuFailObserver([&tb, registry](hw::GpuId gpu) {
                registry->onGpuFailed(gpu, tb.sim().now());
            });
        }
        fault::FaultPlan plan;
        fault::FaultSpec f;
        f.kind = fault::FaultKind::GpuFail;
        f.at = chaosAt;
        f.duration = 0; // permanent
        f.gpu = 0;
        f.grace = msToTicks(200.0);
        plan.add(f);
        inj->arm(plan);
    }

    auto engineFor = [&](std::size_t idx, Tick arrival) {
        std::size_t e = idx % n;
        if (chaos && arrival >= avoidGpu0After)
            e = 1 + idx % (n - 1);
        return e;
    };

    std::size_t expected = 0;
    std::uint64_t promptTotal = 0;
    auto traces = std::make_shared<workload::TraceBuilder>(
        tb.sim().makeRandom());
    /** Group representatives for the residency probe. */
    std::vector<workload::Request> groupReps;
    auto noteGroup = [&](const workload::Request &r) {
        for (const workload::Request &g : groupReps)
            if (g.prefixStream == r.prefixStream)
                return;
        groupReps.push_back(r);
    };

    if (cfg.chatbot) {
        auto turnOf = std::make_shared<std::map<std::uint64_t,
                                                std::uint32_t>>();
        auto userOf = std::make_shared<std::map<std::uint64_t,
                                                std::uint32_t>>();
        auto promptOf = std::make_shared<std::map<std::uint64_t,
                                                  std::uint32_t>>();
        std::vector<workload::Request> first =
            traces->chatbotFirstTurn(cfg.users, 0, cfg.prefixTokens);
        for (std::size_t i = 0; i < first.size(); ++i) {
            const workload::Request &r = first[i];
            (*turnOf)[r.id] = 0;
            (*userOf)[r.id] = r.userId;
            (*promptOf)[r.id] = r.promptTokens;
            promptTotal += r.promptTokens;
            noteGroup(r);
            serve::VllmEngine &eng =
                *engines[engineFor(r.userId, r.arrival)];
            tb.sim().queue().schedule(r.arrival, [&eng, r] {
                eng.submit(r);
            });
        }
        std::uint32_t turns = cfg.turns;
        std::uint32_t sysTokens = cfg.prefixTokens;
        // Each completion issues the user's next turn on a *different*
        // engine, so the re-sent history is a cluster-remote prefix.
        auto followUp = [&, traces, turnOf, userOf, promptOf, sysTokens,
                         turns](const workload::RequestMetrics &m) {
            std::uint32_t turn = (*turnOf)[m.id];
            std::uint32_t user = (*userOf)[m.id];
            if (turn + 1 >= turns)
                return;
            std::uint32_t history =
                (*promptOf)[m.id] + m.tokensGenerated;
            workload::Request next = traces->chatbotFollowUp(
                user, turn + 1, tb.sim().now(), history, sysTokens);
            (*turnOf)[next.id] = turn + 1;
            (*userOf)[next.id] = user;
            (*promptOf)[next.id] = next.promptTokens;
            promptTotal += next.promptTokens;
            serve::VllmEngine &eng = *engines[engineFor(
                std::size_t(user) + turn + 1, next.arrival)];
            tb.sim().queue().schedule(next.arrival, [&eng, next] {
                eng.submit(next);
            });
        };
        for (auto &engine : engines)
            engine->onComplete(followUp);
        expected = std::size_t(cfg.users) * cfg.turns;
    } else {
        std::vector<workload::Request> trace = traces->sharedPrefix(
            cfg.ratePerSec, cfg.numRequests, cfg.prefixTokens,
            cfg.numGroups);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const workload::Request &r = trace[i];
            promptTotal += r.promptTokens;
            noteGroup(r);
            serve::VllmEngine &eng = *engines[engineFor(i, r.arrival)];
            tb.sim().queue().schedule(r.arrival, [&eng, r] {
                eng.submit(r);
            });
        }
        expected = trace.size();
    }

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        std::size_t done = 0;
        for (const auto &engine : engines)
            done += engine->finished().size();
        return done >= expected;
    });

    ClusterPrefixResult result;
    std::uint64_t tokens = 0;
    for (const auto &engine : engines) {
        for (const workload::RequestMetrics &m : engine->finished())
            result.metrics.push_back(m);
        const serve::PrefixCacheEngineStats &es =
            engine->prefixEngineStats();
        result.cachedTokens += es.cachedTokens;
        result.registryHits += es.registryHits;
        result.registryMisses += es.registryMisses;
        result.borrowAdmissions += es.borrowAdmissions;
        result.copyAdmissions += es.copyAdmissions;
        result.remoteCopyBytes += es.remoteCopyBytes;
        result.remoteDecodeReadBytes += es.remoteDecodeReadBytes;
        result.remoteBrokenChains += es.remoteBrokenChains;
        result.sigMismatches += es.sigMismatches;
        result.clusterSigMismatches += es.clusterSigMismatches;
        result.hitTokensLocal += es.hitTokensLocal;
        result.hitTokensRemote += es.hitTokensRemote;
        result.hitTokensDram += es.hitTokensDram;
        result.hitTokensRemoteServer += es.hitTokensRemoteServer;
        tokens += engine->totalTokens();
    }
    sortById(result.metrics);
    result.unfinished = expected > result.metrics.size()
                            ? expected - result.metrics.size()
                            : 0;
    result.promptTokens = promptTotal;
    result.aggregateHitRate =
        promptTotal > 0
            ? static_cast<double>(result.cachedTokens) / promptTotal
            : 0.0;

    // Residency: full preamble blocks each engine still has indexed.
    for (const workload::Request &rep : groupReps) {
        serve::TokenFn tok = serve::tokenFnFor(rep);
        std::uint32_t preamble = cfg.chatbot
                                     ? cfg.prefixTokens
                                     : rep.prefixTokens;
        for (std::size_t i = 0; i < n; ++i) {
            if (tb.server().topology().gpuFailed(
                    static_cast<hw::GpuId>(i)))
                continue;
            const serve::KvCache &kv = engines[i]->kvCache();
            std::uint64_t full = preamble -
                preamble % kv.tokensPerBlock();
            if (full == 0)
                continue;
            result.residentPrefixBytes +=
                kv.probePrefixBlocks(tok, full) * kv.blockBytes();
        }
        const serve::KvCache &kv0 = engines[0]->kvCache();
        std::uint64_t full = preamble - preamble % kv0.tokensPerBlock();
        result.singleCopyBytes +=
            kv0.blocksForTokens(full) * kv0.blockBytes();
    }
    result.residencyFactor =
        result.singleCopyBytes > 0
            ? static_cast<double>(result.residentPrefixBytes) /
                  static_cast<double>(result.singleCopyBytes)
            : 0.0;

    if (registry) {
        const cluster::PrefixRegistryStats &rs = registry->stats();
        result.regPublishes = rs.publishes;
        result.regReplicaPublishes = rs.replicaPublishes;
        result.regCollisions = rs.collisions;
        result.regPromotions = rs.promotions;
        result.regInvalidations = rs.invalidations;
        result.regBrokenPins = rs.brokenPins;
        result.activePins = registry->activePins();
    }

    double elapsed = ticksToSec(tb.sim().now());
    result.elapsedSec = elapsed;
    result.tokensPerSec =
        elapsed > 0.0 ? static_cast<double>(tokens) / elapsed : 0.0;
    return result;
}

FederationRunResult
runFederation(const FederationRunConfig &cfg)
{
    std::size_t n = std::max<std::size_t>(2, cfg.servers);
    MultiServerCluster cluster(n, std::max<std::size_t>(
                                      2, cfg.gpusPerServer),
                               cfg.seed, cfg.fabric);
    ModelSpec spec = presetByName(cfg.consumerModel);

    // Every server runs its own prefix registry (the per-domain silo)
    // regardless of federation: the baseline is siloed registries, the
    // treatment adds the cross-server directory layer on top.
    std::vector<cluster::PrefixRegistry *> registries;
    for (std::size_t i = 0; i < n; ++i) {
        registries.push_back(&cluster.server(i).makePrefixRegistry());
        if (cfg.traceLog)
            registries.back()->setTraceLog(cfg.traceLog);
    }
    if (cfg.federation) {
        federation::DirectoryConfig base;
        base.maxRemoteConsumers = cfg.maxRemoteConsumers;
        cluster.makeFederation(base);
        if (cfg.traceLog)
            for (std::size_t i = 0; i < n; ++i)
                cluster.directory(i).setTraceLog(cfg.traceLog);
        cluster.startAntiEntropy(secToTicks(cfg.maxSimSeconds));
    }
    if (cfg.fabricDegradation < 1.0)
        cluster.fabric().setDegradation(cfg.fabricDegradation);

    // One consumer engine per server, on its gpu 0.
    std::vector<std::unique_ptr<serve::VllmEngine>> engines;
    std::vector<core::AquaLib *> engineLibs;
    for (std::size_t i = 0; i < n; ++i) {
        Testbed &tb = cluster.server(i);
        serve::DramBackend &backend = tb.makeDramBackend(0);
        serve::VllmEngineConfig engineCfg;
        engineCfg.prefixCache = true;
        engineCfg.clusterPrefix = true;
        engineCfg.clusterBorrowMaxBlocks = cfg.borrowMaxBlocks;
        engineCfg.kvPrecision = cfg.kvPrecision;
        engineCfg.federation = cfg.federation;
        engineCfg.federationSafetyFactor = cfg.federationSafetyFactor;
        engines.push_back(std::make_unique<serve::VllmEngine>(
            tb.server(), 0, spec,
            std::make_unique<serve::CfsPolicy>(), backend, engineCfg));
        core::AquaLib &lib = tb.makeAquaLib(0);
        engineLibs.push_back(&lib);
        engines.back()->attachClusterPrefix(registries[i], &lib);
        if (cfg.federation)
            engines.back()->attachFederation(
                &cluster.fabric(), static_cast<std::uint32_t>(i),
                &lib);
        if (cfg.traceLog)
            engines.back()->setTraceLog(cfg.traceLog);
    }

    // The chaos cell kills the origin server's home GPU — server 0's
    // gpu 0, where the first request lands — once the drain margin has
    // idled its engine, and degrades the fabric for a window that
    // overlaps in-flight federation streams.
    Tick chaosAt = secToTicks(cfg.chaosAtSec);
    Tick avoidServer0After =
        cfg.chaosAtSec > cfg.chaosDrainSec
            ? secToTicks(cfg.chaosAtSec - cfg.chaosDrainSec)
            : 0;
    bool chaos = cfg.chaos;
    std::unique_ptr<fault::FaultInjector> inj;
    if (chaos) {
        Testbed &tb0 = cluster.server(0);
        inj = std::make_unique<fault::FaultInjector>(
            cluster.sim(), tb0.server().topology(),
            tb0.rest().router());
        inj->registerLib(*engineLibs[0]);
        inj->attachFabric(&cluster.fabric());
        if (cfg.traceLog)
            inj->setTraceLog(cfg.traceLog);
        cluster::PrefixRegistry *reg0 = registries[0];
        inj->setGpuFailObserver([&cluster, reg0](hw::GpuId gpu) {
            reg0->onGpuFailed(gpu, cluster.sim().now());
        });
        fault::FaultPlan plan;
        fault::FaultSpec kill;
        kill.kind = fault::FaultKind::GpuFail;
        kill.at = chaosAt;
        kill.duration = 0; // permanent
        kill.gpu = 0;
        kill.grace = msToTicks(200.0);
        plan.add(kill);
        fault::FaultSpec degrade;
        degrade.kind = fault::FaultKind::LinkDegrade;
        degrade.link = fault::FaultLink::Fabric;
        degrade.at = secToTicks(cfg.fabricDegradeAtSec);
        degrade.duration = secToTicks(cfg.fabricDegradeForSec);
        degrade.factor = cfg.fabricDegradeFactor;
        plan.add(degrade);
        inj->arm(plan);
    }

    auto engineFor = [&](std::size_t idx, Tick arrival) {
        std::size_t e = idx % n;
        if (chaos && arrival >= avoidServer0After && e == 0)
            e = 1 + idx % (n - 1);
        return e;
    };

    std::size_t expected = 0;
    std::uint64_t promptTotal = 0;
    std::uint64_t tailTotal = 0;
    auto traces = std::make_shared<workload::TraceBuilder>(
        cluster.sim().makeRandom());

    if (cfg.chatbot) {
        auto turnOf = std::make_shared<std::map<std::uint64_t,
                                                std::uint32_t>>();
        auto userOf = std::make_shared<std::map<std::uint64_t,
                                                std::uint32_t>>();
        auto promptOf = std::make_shared<std::map<std::uint64_t,
                                                  std::uint32_t>>();
        std::vector<workload::Request> first =
            traces->chatbotFirstTurn(cfg.users, 0, cfg.prefixTokens);
        for (const workload::Request &r : first) {
            (*turnOf)[r.id] = 0;
            (*userOf)[r.id] = r.userId;
            (*promptOf)[r.id] = r.promptTokens;
            promptTotal += r.promptTokens;
            tailTotal += r.promptTokens > cfg.prefixTokens
                             ? r.promptTokens - cfg.prefixTokens
                             : 0;
            serve::VllmEngine &eng =
                *engines[engineFor(r.userId, r.arrival)];
            cluster.sim().queue().schedule(r.arrival, [&eng, r] {
                eng.submit(r);
            });
        }
        std::uint32_t turns = cfg.turns;
        std::uint32_t sysTokens = cfg.prefixTokens;
        // Each completion issues the user's next turn on a different
        // *server*, so the re-sent history is only reachable through
        // the federation directory (the per-server registries have
        // never seen it).
        auto followUp = [&, traces, turnOf, userOf, promptOf, sysTokens,
                         turns](const workload::RequestMetrics &m) {
            std::uint32_t turn = (*turnOf)[m.id];
            std::uint32_t user = (*userOf)[m.id];
            if (turn + 1 >= turns)
                return;
            std::uint32_t history =
                (*promptOf)[m.id] + m.tokensGenerated;
            workload::Request next = traces->chatbotFollowUp(
                user, turn + 1, cluster.sim().now(), history,
                sysTokens);
            (*turnOf)[next.id] = turn + 1;
            (*userOf)[next.id] = user;
            (*promptOf)[next.id] = next.promptTokens;
            promptTotal += next.promptTokens;
            tailTotal += next.promptTokens > sysTokens
                             ? next.promptTokens - sysTokens
                             : 0;
            serve::VllmEngine &eng = *engines[engineFor(
                std::size_t(user) + turn + 1, next.arrival)];
            cluster.sim().queue().schedule(next.arrival, [&eng, next] {
                eng.submit(next);
            });
        };
        for (auto &engine : engines)
            engine->onComplete(followUp);
        expected = std::size_t(cfg.users) * cfg.turns;
    } else {
        std::vector<workload::Request> trace = traces->sharedPrefix(
            cfg.ratePerSec, cfg.numRequests, cfg.prefixTokens,
            cfg.numGroups);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const workload::Request &r = trace[i];
            promptTotal += r.promptTokens;
            tailTotal += r.promptTokens > r.prefixTokens
                             ? r.promptTokens - r.prefixTokens
                             : 0;
            serve::VllmEngine &eng = *engines[engineFor(i, r.arrival)];
            cluster.sim().queue().schedule(r.arrival, [&eng, r] {
                eng.submit(r);
            });
        }
        expected = trace.size();
    }

    runUntilDone(cluster.sim(), cfg.maxSimSeconds, [&] {
        std::size_t done = 0;
        for (const auto &engine : engines)
            done += engine->finished().size();
        return done >= expected;
    });

    FederationRunResult result;
    std::uint64_t tokens = 0;
    for (const auto &engine : engines) {
        for (const workload::RequestMetrics &m : engine->finished())
            result.metrics.push_back(m);
        const serve::PrefixCacheEngineStats &es =
            engine->prefixEngineStats();
        result.cachedTokens += es.cachedTokens;
        result.hitTokensLocal += es.hitTokensLocal;
        result.hitTokensRemote += es.hitTokensRemote;
        result.hitTokensDram += es.hitTokensDram;
        result.hitTokensRemoteServer += es.hitTokensRemoteServer;
        result.sigMismatches += es.sigMismatches;
        result.clusterSigMismatches += es.clusterSigMismatches;
        result.fedHits += es.fedHits;
        result.fedMisses += es.fedMisses;
        result.fedStreamDecisions += es.fedStreamDecisions;
        result.fedRecomputeDecisions += es.fedRecomputeDecisions;
        result.fedFetchRefusals += es.fedFetchRefusals;
        result.fedStreamsCompleted += es.fedStreamsCompleted;
        result.fedStreamsInvalidated += es.fedStreamsInvalidated;
        result.fedStreamBytes += es.fedStreamBytes;
        tokens += engine->totalTokens();
    }
    sortById(result.metrics);
    result.unfinished = expected > result.metrics.size()
                            ? expected - result.metrics.size()
                            : 0;
    result.promptTokens = promptTotal;
    result.tailTokens = tailTotal;
    result.aggregateHitRate =
        promptTotal > 0
            ? static_cast<double>(result.cachedTokens) / promptTotal
            : 0.0;

    if (cfg.federation) {
        for (std::size_t i = 0; i < n; ++i) {
            const federation::DirectoryStats &ds =
                cluster.directory(i).stats();
            result.dirAdvertsPublished += ds.advertsPublished;
            result.dirTombstones += ds.tombstones;
            result.dirAdvertsApplied += ds.advertsApplied;
            result.dirAdvertsDropped += ds.advertsDropped;
            result.dirAntiEntropyRounds += ds.antiEntropyRounds;
            result.dirFetchGrants += ds.fetchGrants;
            result.dirFetchCapRejects += ds.fetchCapRejects;
            result.dirFetchValidated += ds.fetchValidated;
            result.dirFetchInvalidated += ds.fetchInvalidated;
        }
    }
    const hw::FabricStats &fs = cluster.fabric().stats();
    result.fabricTransfers = fs.transfers;
    result.fabricBytesMoved = fs.bytesMoved;
    result.fabricQueueTicks = fs.queueTicks;

    // Timing-free output digest: federation (and its faults) may only
    // change where prefill KV comes from, never what gets generated.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const workload::RequestMetrics &m : result.metrics) {
        mix(m.id);
        mix(m.tokensGenerated);
    }
    result.outputDigest = h;

    double elapsed = ticksToSec(cluster.sim().now());
    result.elapsedSec = elapsed;
    result.tokensPerSec =
        elapsed > 0.0 ? static_cast<double>(tokens) / elapsed : 0.0;
    return result;
}

OverloadRunResult
runOverload(const OverloadRunConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;
    constexpr hw::GpuId producerGpu = 1;

    ModelSpec consumerSpec = presetByName(cfg.consumerModel);
    ModelSpec producerSpec = presetByName(cfg.producerModel);

    core::AquaLib *producerLib = nullptr;
    serve::OffloadBackend *backend = nullptr;
    if (cfg.mode == ServeMode::CfsAqua) {
        producerLib = &tb.makeAquaLib(producerGpu,
                                      makeInformerFor(producerSpec));
        core::AquaLib &consumerLib = tb.makeAquaLib(consumerGpu);
        tb.assign(consumerGpu, producerGpu);
        backend = &tb.makeAquaBackend(consumerLib);
    } else {
        backend = &tb.makeDramBackend(consumerGpu);
    }

    std::unique_ptr<serve::SchedulerPolicy> policy;
    if (cfg.mode == ServeMode::VllmBaseline)
        policy = std::make_unique<serve::FcfsPolicy>();
    else
        policy = std::make_unique<serve::CfsPolicy>();

    serve::VllmEngineConfig engineCfg;
    // Prefix caching on: its byte-identity checks cover every swap
    // round trip, which is what the chaos acceptance criterion audits.
    engineCfg.prefixCache = true;
    if (cfg.maxBatch != 0)
        engineCfg.maxBatch = cfg.maxBatch;
    engineCfg.kvPoolBytesOverride = cfg.kvPoolBytes;
    if (cfg.controlled) {
        overload::AdmissionConfig ac;
        ac.safetyFactor = cfg.safetyFactor;
        engineCfg.admission = ac;
        engineCfg.brownout = overload::BrownoutConfig{};
    }
    if (cfg.precisionGovernor)
        engineCfg.precisionGovernor =
            overload::KvPrecisionGovernorConfig{};
    serve::VllmEngine consumer(tb.server(), consumerGpu, consumerSpec,
                               std::move(policy), *backend, engineCfg);
    if (cfg.traceLog)
        consumer.setTraceLog(cfg.traceLog);
    if (cfg.controlled && cfg.mode == ServeMode::CfsAqua) {
        // The circuit breaker needs somewhere to divert swaps.
        consumer.setFallbackBackend(&tb.makeDramBackend(consumerGpu));
    }

    Producer producer = makeProducer(tb, producerGpu,
                                     cfg.producerModel, 1.0,
                                     cfg.maxSimSeconds, producerLib);

    std::unique_ptr<fault::FaultInjector> inj;
    if (cfg.faults) {
        inj = std::make_unique<fault::FaultInjector>(
            tb.sim(), tb.server().topology(), tb.rest().router());
        if (producerLib) {
            inj->registerLib(*producerLib);
            // Dead-donor detection: a gpu_fail only turns into
            // emergency evacuation orders if the lease TTL machinery
            // is armed — heartbeats from the donor, expiry at the
            // coordinator.
            tb.coordinator().setLeaseTtl(msToTicks(20.0));
            producerLib->startHeartbeats(
                secToTicks(cfg.maxSimSeconds));
        }
        if (cfg.traceLog)
            inj->setTraceLog(cfg.traceLog);
        inj->arm(*cfg.faults);
    }

    workload::TraceBuilder traces(tb.sim().makeRandom());
    workload::SloSpec slo;
    slo.multiple = cfg.sloMultiple;
    slo.bestEffortFraction = cfg.bestEffortFraction;
    traces.setSlo(slo);
    std::vector<workload::Request> trace = traces.bursty(
        cfg.quietRate * cfg.loadMultiplier,
        cfg.burstRate * cfg.loadMultiplier, cfg.phaseSec,
        cfg.numRequests);
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == trace.size();
    });

    OverloadRunResult res;
    res.metrics = consumer.finished();
    sortById(res.metrics);
    res.shed = consumer.shedCount();
    res.fallbackSwaps = consumer.fallbackSwapCount();
    res.sigMismatches = consumer.prefixEngineStats().sigMismatches;
    res.unfinished = trace.size() - consumer.finished().size();
    res.elapsedSec = ticksToSec(tb.sim().now());

    for (const auto &m : res.metrics) {
        if (m.shed || !m.finished())
            continue;
        if (m.metDeadline())
            ++res.deadlineMet;
        else
            ++res.deadlineMissed;
    }
    std::uint64_t served = res.deadlineMet + res.deadlineMissed;
    res.goodputPerSec =
        res.elapsedSec > 0.0
            ? static_cast<double>(res.deadlineMet) / res.elapsedSec
            : 0.0;
    res.attainment =
        served > 0
            ? static_cast<double>(res.deadlineMet) /
                  static_cast<double>(served)
            : 1.0;
    // Queueing delay in the queueing-theory sense: sojourn minus the
    // fault-free baseline latency (recovered from the stamped SLO,
    // deadline = arrival + sloMultiple x baseline). Under a fair
    // scheduler the admission queue stays empty and overload stretches
    // decode instead, so admit-minus-arrival would read zero.
    stats::Summary qd;
    if (cfg.sloMultiple > 0.0) {
        for (const auto &m : res.metrics) {
            if (m.shed || !m.finished() || m.deadline == 0)
                continue;
            double sojourn = ticksToSec(m.finish - m.arrival);
            double baseline =
                ticksToSec(m.deadline - m.arrival) / cfg.sloMultiple;
            qd.add(std::max(0.0, sojourn - baseline));
        }
    }
    if (!qd.empty()) {
        res.queueDelayP50Sec = qd.median();
        res.queueDelayP99Sec = qd.p99();
    }
    if (const auto *bc = consumer.brownoutController()) {
        res.brownoutTransitions = bc->stats().transitions;
        res.brownoutEscalations = bc->stats().escalations;
        Tick degraded =
            bc->timeAtLevel(overload::BrownoutLevel::ForceDramOffload,
                            tb.sim().now()) +
            bc->timeAtLevel(overload::BrownoutLevel::RejectNew,
                            tb.sim().now());
        res.secondsDegraded = ticksToSec(degraded);
    }
    if (const auto *pg = consumer.precisionGovernor()) {
        res.precisionReconfigs = pg->stats().reconfigurations;
        res.precisionDemotedPayloads = pg->stats().demotedPayloads;
        res.precisionSavedBytes = pg->stats().savedBytes;
    }
    return res;
}

TieringRunResult
runTiering(const TieringRunConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    constexpr hw::GpuId consumerGpu = 0;

    ModelSpec consumerSpec = presetByName(cfg.consumerModel);
    serve::DramBackend &backend = tb.makeDramBackend(consumerGpu);

    if (cfg.ssdDegradeFactor < 1.0)
        tb.server().topology().degradeSsd(cfg.ssdDegradeFactor);

    serve::VllmEngineConfig engineCfg;
    engineCfg.maxBatch = cfg.maxBatch;
    engineCfg.kvPoolBytesOverride = cfg.kvPoolBytes;
    engineCfg.prefixCache = cfg.prefixCache;
    serve::VllmEngine consumer(tb.server(), consumerGpu, consumerSpec,
                               std::make_unique<serve::CfsPolicy>(),
                               backend, engineCfg);
    if (cfg.traceLog)
        consumer.setTraceLog(cfg.traceLog);

    std::unique_ptr<tier::ParkAgent> agent;
    if (cfg.tiering) {
        tier::ParkAgentConfig ac;
        ac.tier.parkAfterSec = cfg.parkAfterSec;
        ac.tier.resumeSafetyFactor = cfg.resumeSafetyFactor;
        agent = std::make_unique<tier::ParkAgent>(tb.server(),
                                                  consumerGpu, ac);
        consumer.attachSessionTier(agent.get());
    }

    std::unique_ptr<fault::FaultInjector> inj;
    if (cfg.faults) {
        inj = std::make_unique<fault::FaultInjector>(
            tb.sim(), tb.server().topology(), tb.rest().router());
        if (cfg.traceLog)
            inj->setTraceLog(cfg.traceLog);
        inj->arm(*cfg.faults);
    }

    auto traces = std::make_shared<workload::TraceBuilder>(
        tb.sim().makeRandom());
    workload::IdleSpec idle;
    idle.coldFraction = cfg.coldFraction;
    idle.meanIdleSec = cfg.meanIdleSec;
    idle.minIdleSec = cfg.minIdleSec;
    traces->setIdle(idle);

    auto turnOf = std::make_shared<std::map<std::uint64_t,
                                            std::uint32_t>>();
    auto userOf = std::make_shared<std::map<std::uint64_t,
                                            std::uint32_t>>();
    auto promptOf = std::make_shared<std::map<std::uint64_t,
                                              std::uint32_t>>();
    auto gapOf = std::make_shared<std::map<std::uint64_t, double>>();
    auto coldIds = std::make_shared<std::set<std::uint64_t>>();

    std::vector<workload::Request> first =
        traces->chatbotFirstTurn(cfg.users);
    for (const workload::Request &r : first) {
        (*turnOf)[r.id] = 0;
        (*userOf)[r.id] = r.userId;
        (*promptOf)[r.id] = r.promptTokens;
        (*gapOf)[r.id] = r.idleGapSec;
    }
    driveTrace(tb.sim(), consumer, first);

    std::uint32_t turns = cfg.turns;
    consumer.onComplete([&, traces, turnOf, userOf, promptOf, gapOf,
                         coldIds](const workload::RequestMetrics &m) {
        std::uint32_t turn = (*turnOf)[m.id];
        std::uint32_t user = (*userOf)[m.id];
        if (turn + 1 >= turns)
            return;
        // A cold session's next turn arrives only after the idle gap;
        // warm sessions reply at chat pace.
        double gap = (*gapOf)[m.id];
        Tick comeBack = tb.sim().now() + secToTicks(gap);
        std::uint32_t history = (*promptOf)[m.id] + m.tokensGenerated;
        workload::Request next =
            traces->chatbotFollowUp(user, turn + 1, comeBack, history);
        if (gap > 0.0)
            next.coldResume = true;
        (*turnOf)[next.id] = turn + 1;
        (*userOf)[next.id] = user;
        (*promptOf)[next.id] = next.promptTokens;
        (*gapOf)[next.id] = next.idleGapSec;
        if (next.coldResume)
            coldIds->insert(next.id);
        tb.sim().queue().schedule(next.arrival, [&consumer, next] {
            consumer.submit(next);
        });
    });

    std::size_t expected = std::size_t(cfg.users) * cfg.turns;
    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == expected;
    });

    TieringRunResult res;
    res.metrics = consumer.finished();
    sortById(res.metrics);
    res.parks = consumer.parkCount();
    res.streamResumes = consumer.streamResumeCount();
    res.recomputeResumes = consumer.recomputeResumeCount();
    res.tierDemotions = consumer.tierDemotionCount();
    res.unfinished = expected > res.metrics.size()
                         ? expected - res.metrics.size()
                         : 0;
    res.elapsedSec = ticksToSec(tb.sim().now());

    stats::Summary coldTtft, warmTtft;
    for (const workload::RequestMetrics &m : res.metrics) {
        if (!m.started())
            continue;
        if (coldIds->count(m.id))
            coldTtft.add(m.ttftSec());
        else if ((*turnOf)[m.id] > 0)
            warmTtft.add(m.ttftSec());
    }
    if (!coldTtft.empty()) {
        res.coldTtftP50Sec = coldTtft.median();
        res.coldTtftP99Sec = coldTtft.p99();
    }
    if (!warmTtft.empty())
        res.warmTtftP50Sec = warmTtft.median();

    if (agent) {
        res.parkedAtEnd = agent->parkedCount();
        const tier::PrefetchStats &ps = agent->pipeline().stats();
        res.streamsStarted = ps.streamsStarted;
        res.streamsCompleted = ps.streamsCompleted;
        res.streamsCancelled = ps.streamsCancelled;
        res.bytesStreamed = ps.bytesStreamed;
        res.bytesWasted = ps.bytesWasted;
        if (!ps.overlapEfficiency.empty())
            res.overlapEfficiencyMean = ps.overlapEfficiency.mean();
    }
    res.ssdBytesRead = tb.server().ssd().bytesRead();
    res.ssdBytesWritten = tb.server().ssd().bytesWritten();
    res.tokensPerSec =
        res.elapsedSec > 0.0
            ? static_cast<double>(consumer.totalTokens()) /
                  res.elapsedSec
            : 0.0;
    return res;
}

std::int64_t
modelMemoryRequirement(const std::string &modelName, bool asProducer)
{
    ModelSpec spec = presetByName(modelName);
    hw::GpuSpec gpu = hw::a100_80g();
    model::PerfModel pm(spec, gpu);
    constexpr std::int64_t gb = 1000 * 1000 * 1000;

    if (!spec.isText()) {
        // Producers: spare HBM at the peak-throughput batch, minus
        // the batch-informer's safety margin.
        std::uint64_t footprint =
            pm.memoryFootprint(spec.maxUsefulBatch, 0);
        std::int64_t spare =
            static_cast<std::int64_t>(gpu.hbmBytes) -
            static_cast<std::int64_t>(footprint) - 2 * gb;
        return spare > 0 ? spare : 0;
    }
    if (asProducer) {
        // An LLM under light load keeps 5 GB of context and donates
        // the rest of its pool (§B llm-informer).
        std::int64_t pool =
            static_cast<std::int64_t>(gpu.hbmBytes) -
            static_cast<std::int64_t>(spec.weightBytes() +
                                      spec.runtimeOverheadBytes);
        std::int64_t spare = pool - 5 * gb;
        return spare > 0 ? spare : 0;
    }
    // Consumers: workload-derived deficits (§6.1 Table 1).
    if (spec.name == "OPT-30B") {
        // An 8k-token prompt's context minus the post-weights HBM.
        return -static_cast<std::int64_t>(spec.kvBytes(10000));
    }
    if (spec.name == "Codellama-34B") {
        // CFS keeps ~100 interactive contexts pageable.
        return -20 * gb;
    }
    // Mistral with LoRA adapters: 20 uncached 320 MB adapters plus
    // interactive context.
    return -8 * gb;
}

EndToEndResult
runEndToEnd(const EndToEndConfig &cfg)
{
    placer::PlacementInput input = makeClusterInput(
        cfg.numServers, cfg.gpusPerServer, cfg.split, cfg.seed);
    // A node budget, not a wall-clock one, ends the search, so the
    // placement and every number after it are the same on any host.
    opt::MilpOptions milpOpt;
    milpOpt.maxNodes = 3000;
    placer::Placement placement =
        placer::AquaPlacer(milpOpt).place(input);
    if (!placement.valid())
        panic("runEndToEnd: placement infeasible");

    EndToEndResult result;
    for (const placer::ModelToPlace &m : input.models)
        result.totalConsumers += m.isConsumer();
    result.pairedConsumers = placement.pairs.size();

    // Evaluate each server independently and sequentially (§6,
    // "we use these servers as building blocks").
    for (std::size_t s = 0; s < cfg.numServers; ++s) {
        // Models on this server, in index order -> local GPU ids.
        std::vector<int> members;
        for (std::size_t m = 0; m < input.models.size(); ++m) {
            if (placement.server[m] == static_cast<int>(s))
                members.push_back(static_cast<int>(m));
        }
        if (members.empty())
            continue;
        auto localGpu = [&](int modelIdx) {
            for (std::size_t i = 0; i < members.size(); ++i) {
                if (members[i] == modelIdx)
                    return static_cast<hw::GpuId>(i);
            }
            panic("runEndToEnd: model not on server");
        };

        Testbed tb(std::max<std::size_t>(members.size(), 1),
                   hw::TopologyKind::DirectP2P, cfg.seed + s);
        workload::TraceBuilder traces(tb.sim().makeRandom());

        // Wire AQUA pairings for this server.
        std::map<int, core::AquaLib *> consumerLibs;
        if (cfg.withAqua) {
            for (const placer::Pairing &pair : placement.pairs) {
                if (pair.server != static_cast<int>(s))
                    continue;
                tb.assign(localGpu(pair.consumerModel),
                          localGpu(pair.producerModel));
            }
        }

        // Engines; keep them alive until the run completes.
        std::vector<std::unique_ptr<serve::BatchEngine>> batches;
        std::vector<std::unique_ptr<serve::VllmEngine>> llms;
        std::vector<std::unique_ptr<serve::FlexGenEngine>> flexes;
        std::vector<serve::FlexGenEngine *> longPrompts;
        std::vector<serve::VllmEngine *> loraEngines;
        std::vector<serve::VllmEngine *> cfsEngines;

        for (int modelIdx : members) {
            const placer::ModelToPlace &m = input.models[modelIdx];
            hw::GpuId gpu = localGpu(modelIdx);
            model::ModelSpec spec = presetByName(m.name);

            if (m.isProducer()) {
                core::AquaLib *lib = nullptr;
                if (cfg.withAqua) {
                    lib = &tb.makeAquaLib(gpu,
                                          makeInformerFor(spec));
                }
                if (spec.isText()) {
                    serve::VllmEngineConfig ecfg;
                    ecfg.informEveryIters = 4;
                    auto &backend = tb.makeDramBackend(gpu);
                    auto engine =
                        std::make_unique<serve::VllmEngine>(
                            tb.server(), gpu, spec,
                            std::make_unique<serve::FcfsPolicy>(),
                            backend, ecfg);
                    if (lib)
                        engine->attachAquaLib(lib);
                    driveTrace(tb.sim(), *engine,
                               traces.interactive(
                                   1.0,
                                   static_cast<std::size_t>(
                                       cfg.durationSec)));
                    llms.push_back(std::move(engine));
                } else {
                    auto engine =
                        std::make_unique<serve::BatchEngine>(
                            tb.server(), gpu, spec);
                    if (lib)
                        engine->attachAquaLib(lib);
                    driveTrace(tb.sim(), *engine,
                               traces.interactive(
                                   1.0,
                                   static_cast<std::size_t>(
                                       cfg.durationSec)));
                    batches.push_back(std::move(engine));
                }
                continue;
            }

            // Consumers: workload depends on the model (Table 1).
            serve::OffloadBackend *backend = nullptr;
            if (cfg.withAqua) {
                core::AquaLib &lib = tb.makeAquaLib(gpu);
                backend = &tb.makeAquaBackend(lib);
            } else {
                backend = &tb.makeDramBackend(gpu);
            }
            if (spec.name == "OPT-30B") {
                auto engine =
                    std::make_unique<serve::FlexGenEngine>(
                        tb.server(), gpu, spec, *backend);
                for (int n = 0; n < 20; ++n)
                    engine->submit(traces.longPrompt(8000, 2000));
                longPrompts.push_back(engine.get());
                flexes.push_back(std::move(engine));
            } else if (spec.name == "Codellama-34B") {
                serve::VllmEngineConfig ecfg;
                auto engine = std::make_unique<serve::VllmEngine>(
                    tb.server(), gpu, spec,
                    std::make_unique<serve::CfsPolicy>(), *backend,
                    ecfg);
                driveTrace(tb.sim(), *engine,
                           traces.codeSummary(2.0, 200));
                cfsEngines.push_back(engine.get());
                llms.push_back(std::move(engine));
            } else {
                // Mistral with LoRA adapters.
                serve::VllmEngineConfig ecfg;
                serve::LoraCacheConfig loraCfg;
                loraCfg.capacityBytes =
                    std::uint64_t(10) * (320 << 20);
                ecfg.lora = loraCfg;
                auto engine = std::make_unique<serve::VllmEngine>(
                    tb.server(), gpu, spec,
                    std::make_unique<serve::FcfsPolicy>(), *backend,
                    ecfg,
                    model::synthesizeAdapters(
                        "lora", std::uint64_t(320) << 20, 30));
                driveTrace(tb.sim(), *engine,
                           traces.lora(2.0, 200, 30));
                loraEngines.push_back(engine.get());
                llms.push_back(std::move(engine));
            }
        }

        tb.sim().runUntil(secToTicks(cfg.durationSec));

        for (serve::FlexGenEngine *engine : longPrompts) {
            result.longPromptTokens += engine->totalTokens();
            ++result.longPromptConsumers;
        }
        for (serve::VllmEngine *engine : loraEngines) {
            for (const auto &m : engine->finished())
                result.loraMetrics.push_back(m);
        }
        for (serve::VllmEngine *engine : cfsEngines) {
            for (const auto &m : engine->finished())
                result.cfsMetrics.push_back(m);
        }
        for (const auto &engine : batches)
            result.producerItems += engine->itemsGenerated();
    }
    return result;
}

placer::PlacementInput
makeClusterInput(std::size_t numServers, std::size_t gpusPerServer,
                 const std::string &split, std::uint64_t seed)
{
    placer::PlacementInput input;
    input.numServers = numServers;
    input.gpusPerServer = gpusPerServer;
    input.gpuMemBytes = hw::a100_80g().hbmBytes;

    Random rng(seed);
    std::size_t slots = numServers * gpusPerServer;

    struct Choice
    {
        const char *name;
        bool producer;
    };
    std::vector<Choice> palette;
    if (split == "balanced") {
        // Equal thirds image / audio / language (§6.1); the image and
        // audio models are producers, the LLM jobs are consumers.
        palette = {
            {"StableDiffusion", true}, {"StableDiffusion-XL", true},
            {"Kandinsky", true},       {"AudioGen", true},
            {"MusicGen", true},        {"OPT-30B", false},
            {"Codellama-34B", false},  {"Mistral-7B", false},
        };
        for (std::size_t i = 0; i < slots; ++i) {
            // Cycle modality: image, audio, text.
            std::size_t modality = i % 3;
            const Choice *pick = nullptr;
            switch (modality) {
              case 0: {
                static const std::size_t imgs[] = {0, 1, 2};
                pick = &palette[imgs[rng.uniformInt(0, 2)]];
                break;
              }
              case 1: {
                static const std::size_t auds[] = {3, 4};
                pick = &palette[auds[rng.uniformInt(0, 1)]];
                break;
              }
              default: {
                static const std::size_t txts[] = {5, 6, 7};
                pick = &palette[txts[rng.uniformInt(0, 2)]];
                break;
              }
            }
            placer::ModelToPlace m;
            m.name = pick->name;
            m.memBytes =
                modelMemoryRequirement(pick->name, pick->producer);
            input.models.push_back(m);
        }
    } else if (split == "llm-heavy") {
        // All LLMs: half light-load producers, half consumers.
        static const Choice producers[] = {
            {"Mistral-7B", true}, {"Llama-2-13B", true},
        };
        static const Choice consumers[] = {
            {"OPT-30B", false}, {"Codellama-34B", false},
            {"Mistral-7B", false},
        };
        for (std::size_t i = 0; i < slots; ++i) {
            const Choice *pick;
            if (i % 2 == 0)
                pick = &producers[rng.uniformInt(0, 1)];
            else
                pick = &consumers[rng.uniformInt(0, 2)];
            placer::ModelToPlace m;
            m.name = pick->name;
            m.memBytes =
                modelMemoryRequirement(pick->name, pick->producer);
            input.models.push_back(m);
        }
    } else {
        panic("makeClusterInput: unknown split '%s'", split.c_str());
    }
    return input;
}

} // namespace aqua::exp
