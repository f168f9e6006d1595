#include "exp/experiments.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "exp/testbed.hh"
#include "fault/fault.hh"
#include "model/perf_model.hh"
#include "serve/batch_engine.hh"
#include "serve/flexgen_engine.hh"
#include "serve/ssd_tier.hh"
#include "serve/vllm_engine.hh"
#include "sim/logging.hh"
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

/** Every two-GPU testbed serves its consumer on gpu 0 and its
 *  producer on gpu 1. */
constexpr hw::GpuId consumerGpu = 0;
constexpr hw::GpuId producerGpu = 1;

// Settings no caller varies; the config docs in experiments.hh name
// them.
const char *const loraBaseModel = "Mistral-7B";
constexpr double elasticConsumerStartSec = 150.0;
constexpr double elasticPhase2StartSec = 400.0;
constexpr double clusterChaosAtSec = 40.0;
constexpr double clusterChaosDrainSec = 30.0;
constexpr double fedChaosAtSec = 20.0;
constexpr double fedChaosDrainSec = 15.0;
constexpr double fedDegradeAtSec = 4.0;
constexpr double fedDegradeForSec = 30.0;
constexpr double fedDegradeFactor = 0.05;
constexpr double overloadQuietRate = 0.5;
constexpr double overloadBurstRate = 1.5;
constexpr double overloadPhaseSec = 15.0;

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

/** Submit @p r to @p engine when it arrives. */
void
submitAt(Simulation &sim, serve::VllmEngine &engine,
         const workload::Request &r)
{
    sim.queue().schedule(r.arrival, [&engine, r] { engine.submit(r); });
}

std::unique_ptr<core::Informer>
makeInformerFor(const ModelSpec &spec)
{
    if (spec.isText())
        return std::make_unique<core::LlmInformer>();
    return std::make_unique<core::BatchInformer>();
}

/**
 * A producer engine: either a compute-bound image/audio engine fed
 * Parti-style arrivals, or an LLM producer serving a light ShareGPT
 * load (Table 2). Either gets one request per second.
 */
struct Producer
{
    std::unique_ptr<serve::BatchEngine> batch;
    std::unique_ptr<serve::VllmEngine> llm;

    double
    throughput() const
    {
        return batch ? batch->throughput() : 0.0;
    }
};

Producer
makeProducer(Testbed &tb, hw::GpuId gpu, const std::string &name,
             double horizonSec, core::AquaLib *lib,
             workload::TraceBuilder &traces)
{
    Producer p;
    ModelSpec spec = presetByName(name);
    auto count = static_cast<std::size_t>(horizonSec);
    if (spec.isText()) {
        serve::VllmEngineConfig cfg;
        cfg.informEveryIters = 4;
        auto &backend = tb.makeDramBackend(gpu);
        p.llm = std::make_unique<serve::VllmEngine>(
            tb.server(), gpu, spec,
            std::make_unique<serve::FcfsPolicy>(), backend, cfg);
        if (lib)
            p.llm->attachAquaLib(lib);
        driveTrace(tb.sim(), *p.llm, traces.interactive(1.0, count));
    } else {
        p.batch = std::make_unique<serve::BatchEngine>(tb.server(),
                                                       gpu, spec);
        if (lib)
            p.batch->attachAquaLib(lib);
        driveTrace(tb.sim(), *p.batch, traces.interactive(1.0, count));
    }
    return p;
}

/** As above, on a fresh random stream of its own. */
Producer
makeProducer(Testbed &tb, hw::GpuId gpu, const std::string &name,
             double horizonSec, core::AquaLib *lib)
{
    workload::TraceBuilder traces(tb.sim().makeRandom());
    return makeProducer(tb, gpu, name, horizonSec, lib, traces);
}

/** A consumer's offload backend and, with AQUA, the library of the
 *  producer it borrows memory from. */
struct ConsumerPair
{
    serve::OffloadBackend *backend = nullptr;
    core::AquaLib *producerLib = nullptr;
};

/**
 * Wire @p consumer's offload path. Without AQUA it offloads to host
 * DRAM. With it, @p producer gets an AQUA library with the informer
 * for @p producerModel, @p consumer gets one too, is assigned to
 * @p target and offloads through an AQUA backend (staged unless the
 * mode is AquaUnstaged).
 */
ConsumerPair
makeConsumerPair(Testbed &tb, OffloadMode mode,
                 const std::string &producerModel,
                 hw::GpuId consumer = consumerGpu,
                 hw::GpuId producer = producerGpu,
                 hw::GpuId target = producerGpu)
{
    ConsumerPair pair;
    if (mode == OffloadMode::Dram) {
        pair.backend = &tb.makeDramBackend(consumer);
        return pair;
    }
    core::AquaLibConfig libCfg;
    libCfg.useStaging = mode != OffloadMode::AquaUnstaged;
    pair.producerLib = &tb.makeAquaLib(
        producer, makeInformerFor(presetByName(producerModel)), libCfg);
    core::AquaLib &consumerLib = tb.makeAquaLib(consumer, nullptr, libCfg);
    tb.assign(consumer, target);
    pair.backend = &tb.makeAquaBackend(consumerLib);
    return pair;
}

/** A ServeMode's offload path: only CfsAqua leaves host DRAM. */
OffloadMode
offloadOf(ServeMode mode)
{
    return mode == ServeMode::CfsAqua ? OffloadMode::Aqua
                                      : OffloadMode::Dram;
}

std::unique_ptr<serve::SchedulerPolicy>
policyFor(ServeMode mode)
{
    if (mode == ServeMode::VllmBaseline)
        return std::make_unique<serve::FcfsPolicy>();
    return std::make_unique<serve::CfsPolicy>();
}

/** Sort metrics by request id (arrival/issue order). */
void
sortById(std::vector<workload::RequestMetrics> &metrics)
{
    std::sort(metrics.begin(), metrics.end(),
              [](const auto &a, const auto &b) { return a.id < b.id; });
}

/** Copy @p consumer's counters into @p s once the run has ended at
 *  @p sim's now. */
void
readConsumerStats(ConsumerStats &s, const serve::VllmEngine &consumer,
                  const Simulation &sim)
{
    s.prefixIndex = consumer.kvCache().prefixStats();
    s.prefix = consumer.prefixEngineStats();
    s.peakLiveKvBytes = consumer.kvCache().peakLiveKvBytes();
    s.offloadWriteBytes = consumer.offloadWriteBytes();
    s.offloadReadBytes = consumer.offloadReadBytes();
    s.swapOuts = consumer.swapOutCount();
    s.swapIns = consumer.swapInCount();
    double elapsed = ticksToSec(sim.now());
    s.tokensPerSec =
        elapsed > 0.0
            ? static_cast<double>(consumer.totalTokens()) / elapsed
            : 0.0;
}

/** Picks the engine for a request: @p slot is the trace index of a
 *  single-shot request, or user + turn of a chat turn. */
using Route = std::function<serve::VllmEngine &(std::size_t slot,
                                                Tick arrival)>;
/** Sees every request as it is issued. */
using Tally = std::function<void(const workload::Request &)>;

/** Issue a single-shot @p trace; returns the requests to wait for. */
std::size_t
issueTrace(Simulation &sim, const std::vector<workload::Request> &trace,
           const Route &route, const Tally &tally)
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        tally(trace[i]);
        submitAt(sim, route(i, trace[i].arrival), trace[i]);
    }
    return trace.size();
}

/**
 * The chatbot driver (§8). Every user's first turn is issued up
 * front; each completion issues that user's next turn, which re-sends
 * the whole conversation so far as history. A follow-up leaves at
 * now + the finished turn's idle gap, which is 0 unless the trace
 * builder has an IdleSpec; a non-zero gap makes it a cold resume.
 */
class ChatDriver
{
  public:
    ChatDriver(Simulation &sim, workload::TraceBuilder &traces,
               std::uint32_t turns, std::uint32_t systemPromptTokens,
               Route route, Tally tally = [](const workload::Request &) {})
        : sim(sim), traces(traces), turns(turns),
          systemPromptTokens(systemPromptTokens), route(std::move(route)),
          tally(std::move(tally))
    {
    }

    /** Engines' completion callbacks hold this driver's address. */
    ChatDriver(const ChatDriver &) = delete;
    ChatDriver &operator=(const ChatDriver &) = delete;

    /** Issue @p users first turns and chain follow-ups off
     *  @p engines; returns the requests to wait for. */
    std::size_t
    start(std::uint32_t users,
          const std::vector<serve::VllmEngine *> &engines)
    {
        for (const workload::Request &r :
             traces.chatbotFirstTurn(users, 0, systemPromptTokens))
            issue(r);
        for (serve::VllmEngine *engine : engines)
            engine->onComplete([this](const workload::RequestMetrics &m) {
                followUp(m);
            });
        return std::size_t(users) * turns;
    }

    std::uint32_t
    turnOf(std::uint64_t id) const
    {
        return chats.at(id).turn;
    }

  private:
    struct Turn
    {
        std::uint32_t user = 0;
        std::uint32_t turn = 0;
        std::uint32_t prompt = 0;
        double idleGapSec = 0.0;
    };

    void
    issue(const workload::Request &r)
    {
        chats[r.id] = {r.userId, r.turn, r.promptTokens, r.idleGapSec};
        tally(r);
        submitAt(sim, route(std::size_t(r.userId) + r.turn, r.arrival),
                 r);
    }

    void
    followUp(const workload::RequestMetrics &m)
    {
        Turn t = chats.at(m.id);
        if (t.turn + 1 >= turns)
            return;
        workload::Request next = traces.chatbotFollowUp(
            t.user, t.turn + 1, sim.now() + secToTicks(t.idleGapSec),
            t.prompt + m.tokensGenerated, systemPromptTokens);
        next.coldResume = t.idleGapSec > 0.0;
        issue(next);
    }

    Simulation &sim;
    workload::TraceBuilder &traces;
    std::uint32_t turns;
    std::uint32_t systemPromptTokens;
    Route route;
    Tally tally;
    std::map<std::uint64_t, Turn> chats;
};

/**
 * Run a fleet of engines until @p expected requests finished, then
 * merge their output into @p result: metrics in id order, summed
 * prefix counters, tokens/s and the hit rate over the prompt tokens
 * the caller tallied into it.
 */
void
runFleet(FleetResult &result, Simulation &sim, double maxSimSeconds,
         const std::vector<std::unique_ptr<serve::VllmEngine>> &engines,
         std::size_t expected)
{
    runUntilDone(sim, maxSimSeconds, [&] {
        std::size_t done = 0;
        for (const auto &engine : engines)
            done += engine->finished().size();
        return done >= expected;
    });

    std::uint64_t tokens = 0;
    for (const auto &engine : engines) {
        for (const workload::RequestMetrics &m : engine->finished())
            result.metrics.push_back(m);
        result.prefix += engine->prefixEngineStats();
        tokens += engine->totalTokens();
    }
    sortById(result.metrics);
    result.unfinished = expected > result.metrics.size()
                            ? expected - result.metrics.size()
                            : 0;
    result.aggregateHitRate =
        result.promptTokens > 0
            ? static_cast<double>(result.prefix.cachedTokens) /
                  result.promptTokens
            : 0.0;
    result.elapsedSec = ticksToSec(sim.now());
    result.tokensPerSec =
        result.elapsedSec > 0.0
            ? static_cast<double>(tokens) / result.elapsedSec
            : 0.0;
}

/** Raw pointers to a fleet's engines (the chat driver's view). */
std::vector<serve::VllmEngine *>
enginePtrs(const std::vector<std::unique_ptr<serve::VllmEngine>> &engines)
{
    std::vector<serve::VllmEngine *> out;
    for (const auto &engine : engines)
        out.push_back(engine.get());
    return out;
}

} // anonymous namespace

CfsExperimentResult
runCfsExperiment(const CfsExperimentConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    ConsumerPair pair =
        makeConsumerPair(tb, offloadOf(cfg.mode), cfg.producerModel);
    serve::VllmEngineConfig engineCfg;
    engineCfg.cfsSliceTokens = cfg.sliceTokens;
    serve::VllmEngine consumer(tb.server(), consumerGpu,
                               presetByName(cfg.consumerModel),
                               policyFor(cfg.mode), *pair.backend,
                               engineCfg);
    Producer producer = makeProducer(tb, producerGpu, cfg.producerModel,
                                     cfg.maxSimSeconds, pair.producerLib);

    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<workload::Request> trace =
        traces.codeSummary(cfg.ratePerSec, cfg.numRequests);
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == cfg.numRequests;
    });

    CfsExperimentResult result;
    readConsumerStats(result, consumer, tb.sim());
    result.metrics = consumer.finished();
    sortById(result.metrics);
    result.producerThroughput = producer.throughput();
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

    std::vector<std::unique_ptr<serve::FlexGenEngine>> consumers;
    std::vector<Producer> producers;
    workload::TraceBuilder traces(tb.sim().makeRandom());

    for (std::size_t i = 0; i < cfg.pairs; ++i) {
        auto consumerAt = static_cast<hw::GpuId>(2 * i);
        auto producerAt = static_cast<hw::GpuId>(2 * i + 1);
        ConsumerPair pair = makeConsumerPair(
            tb, cfg.mode, cfg.producerModel, consumerAt, producerAt,
            cfg.sharedProducer ? producerGpu : producerAt);
        producers.push_back(makeProducer(tb, producerAt,
                                         cfg.producerModel,
                                         cfg.durationSec,
                                         pair.producerLib));

        consumers.push_back(std::make_unique<serve::FlexGenEngine>(
            tb.server(), consumerAt, consumerSpec, *pair.backend));
        // Queue enough prompts to outlast the measurement window.
        for (int n = 0; n < 40; ++n) {
            workload::Request r =
                traces.longPrompt(cfg.promptTokens, 2000);
            tb.sim().queue().schedule(r.arrival, [&, r, i] {
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
    ConsumerPair pair = makeConsumerPair(tb, cfg.mode, cfg.producerModel);

    // Give the producer a head start so its donation is in place
    // before the adapter store is populated.
    Producer producer = makeProducer(tb, producerGpu, cfg.producerModel,
                                     cfg.maxSimSeconds, pair.producerLib);
    tb.sim().runUntil(secToTicks(1.0));

    serve::VllmEngineConfig engineCfg;
    serve::LoraCacheConfig loraCfg;
    loraCfg.capacityBytes = cfg.cacheBytes;
    engineCfg.lora = loraCfg;
    serve::VllmEngine consumer(
        tb.server(), consumerGpu, presetByName(loraBaseModel),
        std::make_unique<serve::FcfsPolicy>(), *pair.backend, engineCfg,
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
        1.0, 100, secToTicks(elasticConsumerStartSec));
    std::vector<workload::Request> phase2 = traces.interactive(
        5.0, 250, secToTicks(elasticPhase2StartSec));
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
                8000, 2000, secToTicks(elasticConsumerStartSec));
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
    ConsumerPair pair =
        makeConsumerPair(tb, offloadOf(cfg.mode), cfg.producerModel);
    serve::VllmEngineConfig engineCfg;
    engineCfg.prefixCache = cfg.prefixCache;
    serve::VllmEngine consumer(tb.server(), consumerGpu,
                               presetByName(cfg.consumerModel),
                               policyFor(cfg.mode), *pair.backend,
                               engineCfg);
    Producer producer = makeProducer(tb, producerGpu, cfg.producerModel,
                                     cfg.maxSimSeconds, pair.producerLib);

    workload::TraceBuilder traces(tb.sim().makeRandom());
    ChatDriver chat(tb.sim(), traces, cfg.turns, cfg.systemPromptTokens,
                    [&](std::size_t, Tick) -> serve::VllmEngine & {
                        return consumer;
                    });
    std::size_t expected = chat.start(cfg.users, {&consumer});
    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == expected;
    });

    ChatbotResult result;
    readConsumerStats(result, consumer, tb.sim());
    for (const workload::RequestMetrics &m : consumer.finished())
        result.metrics.push_back({chat.turnOf(m.id), m});
    std::sort(result.metrics.begin(), result.metrics.end(),
              [](const auto &a, const auto &b) {
                  return a.metrics.id < b.metrics.id;
              });
    return result;
}

PrefixAblationResult
runPrefixAblation(const PrefixAblationConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    ConsumerPair pair =
        makeConsumerPair(tb, offloadOf(cfg.mode), cfg.producerModel);
    serve::VllmEngineConfig engineCfg;
    engineCfg.prefixCache = cfg.prefixCache;
    engineCfg.maxCacheShare = cfg.maxCacheShare;
    engineCfg.prefixEviction = cfg.eviction;
    engineCfg.kvPrecision = cfg.kvPrecision;
    engineCfg.sparseReadFraction = cfg.sparseReadFraction;
    serve::VllmEngine consumer(tb.server(), consumerGpu,
                               presetByName(cfg.consumerModel),
                               policyFor(cfg.mode), *pair.backend,
                               engineCfg);
    Producer producer = makeProducer(tb, producerGpu, cfg.producerModel,
                                     cfg.maxSimSeconds, pair.producerLib);

    workload::TraceBuilder traces(tb.sim().makeRandom());
    std::vector<workload::Request> trace = traces.sharedPrefix(
        cfg.ratePerSec, cfg.numRequests, cfg.prefixTokens,
        prefixAblationGroups);
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == trace.size();
    });

    PrefixAblationResult result;
    readConsumerStats(result, consumer, tb.sim());
    result.metrics = consumer.finished();
    sortById(result.metrics);
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
    Tick avoidGpu0After =
        secToTicks(clusterChaosAtSec - clusterChaosDrainSec);
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
        f.at = secToTicks(clusterChaosAtSec);
        f.duration = 0; // permanent
        f.gpu = 0;
        f.grace = msToTicks(200.0);
        plan.add(f);
        inj->arm(plan);
    }

    auto engineFor = [&](std::size_t idx,
                         Tick arrival) -> serve::VllmEngine & {
        std::size_t e = idx % n;
        if (chaos && arrival >= avoidGpu0After)
            e = 1 + idx % (n - 1);
        return *engines[e];
    };

    ClusterPrefixResult result;
    /** Group representatives for the residency probe. */
    std::vector<workload::Request> groupReps;
    auto tally = [&](const workload::Request &r) {
        result.promptTokens += r.promptTokens;
        for (const workload::Request &g : groupReps)
            if (g.prefixStream == r.prefixStream)
                return;
        groupReps.push_back(r);
    };

    // In the chatbot each completion issues the user's next turn on a
    // *different* engine, so the re-sent history is a cluster-remote
    // prefix.
    workload::TraceBuilder traces(tb.sim().makeRandom());
    ChatDriver chat(tb.sim(), traces, cfg.turns, cfg.prefixTokens,
                    engineFor, tally);
    std::size_t expected =
        cfg.chatbot
            ? chat.start(cfg.users, enginePtrs(engines))
            : issueTrace(tb.sim(),
                         traces.sharedPrefix(cfg.ratePerSec,
                                             cfg.numRequests,
                                             cfg.prefixTokens),
                         engineFor, tally);

    runFleet(result, tb.sim(), cfg.maxSimSeconds, engines, expected);

    // Residency: full preamble blocks each engine still has indexed.
    for (const workload::Request &rep : groupReps) {
        serve::TokenChain chain(serve::tokenFnFor(rep),
                                engines[0]->kvCache().tokensPerBlock());
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
                kv.probePrefixBlocks(chain, full) * kv.blockBytes();
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
        result.registry = registry->stats();
        result.activePins = registry->activePins();
    }
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
    Tick avoidServer0After = secToTicks(fedChaosAtSec - fedChaosDrainSec);
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
        kill.at = secToTicks(fedChaosAtSec);
        kill.duration = 0; // permanent
        kill.gpu = 0;
        kill.grace = msToTicks(200.0);
        plan.add(kill);
        fault::FaultSpec degrade;
        degrade.kind = fault::FaultKind::LinkDegrade;
        degrade.link = fault::FaultLink::Fabric;
        degrade.at = secToTicks(fedDegradeAtSec);
        degrade.duration = secToTicks(fedDegradeForSec);
        degrade.factor = fedDegradeFactor;
        plan.add(degrade);
        inj->arm(plan);
    }

    auto engineFor = [&](std::size_t idx,
                         Tick arrival) -> serve::VllmEngine & {
        std::size_t e = idx % n;
        if (chaos && arrival >= avoidServer0After && e == 0)
            e = 1 + idx % (n - 1);
        return *engines[e];
    };

    FederationRunResult result;
    auto tally = [&](const workload::Request &r) {
        result.promptTokens += r.promptTokens;
        result.tailTokens += r.promptTokens > r.prefixTokens
                                 ? r.promptTokens - r.prefixTokens
                                 : 0;
    };

    // In the chatbot each completion issues the user's next turn on a
    // different *server*, so the re-sent history is only reachable
    // through the federation directory (the per-server registries
    // have never seen it).
    workload::TraceBuilder traces(cluster.sim().makeRandom());
    ChatDriver chat(cluster.sim(), traces, cfg.turns, cfg.prefixTokens,
                    engineFor, tally);
    std::size_t expected =
        cfg.chatbot
            ? chat.start(cfg.users, enginePtrs(engines))
            : issueTrace(cluster.sim(),
                         traces.sharedPrefix(cfg.ratePerSec,
                                             cfg.numRequests,
                                             cfg.prefixTokens),
                         engineFor, tally);

    runFleet(result, cluster.sim(), cfg.maxSimSeconds, engines, expected);
    if (cfg.federation)
        for (std::size_t i = 0; i < n; ++i)
            result.directory += cluster.directory(i).stats();
    result.fabric = cluster.fabric().stats();

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
    return result;
}

OverloadRunResult
runOverload(const OverloadRunConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    ConsumerPair pair =
        makeConsumerPair(tb, offloadOf(cfg.mode), cfg.producerModel);
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
        engineCfg.overload.admission = ac;
        engineCfg.overload.brownout = overload::BrownoutConfig{};
    }
    if (cfg.precisionGovernor)
        engineCfg.overload.precisionGovernor =
            overload::KvPrecisionGovernorConfig{};
    serve::VllmEngine consumer(tb.server(), consumerGpu,
                               presetByName(cfg.consumerModel),
                               policyFor(cfg.mode), *pair.backend,
                               engineCfg);
    if (cfg.traceLog)
        consumer.setTraceLog(cfg.traceLog);
    if (cfg.controlled && cfg.mode == ServeMode::CfsAqua) {
        // The circuit breaker needs somewhere to divert swaps.
        consumer.setFallbackBackend(&tb.makeDramBackend(consumerGpu));
    }
    Producer producer = makeProducer(tb, producerGpu, cfg.producerModel,
                                     cfg.maxSimSeconds, pair.producerLib);

    std::unique_ptr<fault::FaultInjector> inj;
    if (cfg.faults) {
        inj = std::make_unique<fault::FaultInjector>(
            tb.sim(), tb.server().topology(), tb.rest().router());
        if (pair.producerLib) {
            inj->registerLib(*pair.producerLib);
            // Dead-donor detection: a gpu_fail only turns into
            // emergency evacuation orders if the lease TTL machinery
            // is armed — heartbeats from the donor, expiry at the
            // coordinator.
            tb.coordinator().setLeaseTtl(msToTicks(20.0));
            pair.producerLib->startHeartbeats(
                secToTicks(cfg.maxSimSeconds));
        }
        if (cfg.traceLog)
            inj->setTraceLog(cfg.traceLog);
        inj->arm(*cfg.faults);
    }

    workload::TraceBuilder traces(tb.sim().makeRandom());
    workload::SloSpec slo;
    slo.multiple = overloadSloMultiple;
    slo.bestEffortFraction = cfg.bestEffortFraction;
    traces.setSlo(slo);
    std::vector<workload::Request> trace = traces.bursty(
        overloadQuietRate * cfg.loadMultiplier,
        overloadBurstRate * cfg.loadMultiplier, overloadPhaseSec,
        cfg.numRequests);
    driveTrace(tb.sim(), consumer, trace);

    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == trace.size();
    });

    OverloadRunResult res;
    readConsumerStats(res, consumer, tb.sim());
    res.metrics = consumer.finished();
    sortById(res.metrics);
    const overload::Controls &ctl = consumer.overloadControls();
    res.shed = ctl.shedCount();
    res.fallbackSwaps = consumer.fallbackSwapCount();
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
    // deadline = arrival + overloadSloMultiple x baseline). Under a
    // fair scheduler the admission queue stays empty and overload
    // stretches decode instead, so admit-minus-arrival would read 0.
    stats::Summary qd;
    for (const auto &m : res.metrics) {
        if (m.shed || !m.finished() || m.deadline == 0)
            continue;
        double sojourn = ticksToSec(m.finish - m.arrival);
        double baseline =
            ticksToSec(m.deadline - m.arrival) / overloadSloMultiple;
        qd.add(std::max(0.0, sojourn - baseline));
    }
    if (!qd.empty()) {
        res.queueDelayP50Sec = qd.median();
        res.queueDelayP99Sec = qd.p99();
    }
    if (const auto *bc = ctl.brownoutController()) {
        res.brownout = bc->stats();
        Tick degraded =
            bc->timeAtLevel(overload::BrownoutLevel::ForceDramOffload,
                            tb.sim().now()) +
            bc->timeAtLevel(overload::BrownoutLevel::RejectNew,
                            tb.sim().now());
        res.secondsDegraded = ticksToSec(degraded);
    }
    if (const auto *pg = ctl.precisionGovernor())
        res.governor = pg->stats();
    return res;
}

TieringRunResult
runTiering(const TieringRunConfig &cfg)
{
    Testbed tb(2, hw::TopologyKind::DirectP2P, cfg.seed);
    serve::DramBackend &backend = tb.makeDramBackend(consumerGpu);

    if (cfg.ssdDegradeFactor < 1.0)
        tb.server().topology().degradeSsd(cfg.ssdDegradeFactor);

    serve::VllmEngineConfig engineCfg;
    engineCfg.maxBatch = cfg.maxBatch;
    engineCfg.kvPoolBytesOverride = cfg.kvPoolBytes;
    engineCfg.prefixCache = cfg.prefixCache;
    serve::VllmEngine consumer(tb.server(), consumerGpu,
                               presetByName(cfg.consumerModel),
                               std::make_unique<serve::CfsPolicy>(),
                               backend, engineCfg);
    if (cfg.traceLog)
        consumer.setTraceLog(cfg.traceLog);

    std::unique_ptr<serve::SsdTier> ssdTier;
    if (cfg.tiering) {
        serve::SsdTierConfig tc;
        tc.parkAfterSec = cfg.parkAfterSec;
        tc.resumeSafetyFactor = cfg.resumeSafetyFactor;
        ssdTier = std::make_unique<serve::SsdTier>(tb.server(),
                                                   consumerGpu, tc);
        consumer.attachSsdTier(ssdTier.get());
    }

    std::unique_ptr<fault::FaultInjector> inj;
    if (cfg.faults) {
        inj = std::make_unique<fault::FaultInjector>(
            tb.sim(), tb.server().topology(), tb.rest().router());
        if (cfg.traceLog)
            inj->setTraceLog(cfg.traceLog);
        inj->arm(*cfg.faults);
    }

    // A cold session's next turn arrives only after its idle gap;
    // warm sessions reply at chat pace.
    workload::TraceBuilder traces(tb.sim().makeRandom());
    workload::IdleSpec idle;
    idle.coldFraction = cfg.coldFraction;
    idle.meanIdleSec = cfg.meanIdleSec;
    idle.minIdleSec = cfg.minIdleSec;
    traces.setIdle(idle);
    std::set<std::uint64_t> coldIds;
    ChatDriver chat(
        tb.sim(), traces, cfg.turns, 0,
        [&](std::size_t, Tick) -> serve::VllmEngine & { return consumer; },
        [&](const workload::Request &r) {
            if (r.coldResume)
                coldIds.insert(r.id);
        });
    std::size_t expected = chat.start(cfg.users, {&consumer});
    runUntilDone(tb.sim(), cfg.maxSimSeconds, [&] {
        return consumer.finished().size() == expected;
    });

    TieringRunResult res;
    readConsumerStats(res, consumer, tb.sim());
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
        if (coldIds.count(m.id))
            coldTtft.add(m.ttftSec());
        else if (chat.turnOf(m.id) > 0)
            warmTtft.add(m.ttftSec());
    }
    if (!coldTtft.empty()) {
        res.coldTtftP50Sec = coldTtft.median();
        res.coldTtftP99Sec = coldTtft.p99();
    }
    if (!warmTtft.empty())
        res.warmTtftP50Sec = warmTtft.median();

    if (ssdTier) {
        res.parkedAtEnd = ssdTier->parkedCount();
        res.prefetch = ssdTier->plan().stats();
        const stats::Summary &overlap = res.prefetch.overlapEfficiency;
        if (!overlap.empty())
            res.overlapEfficiencyMean = overlap.mean();
    }
    res.ssdBytesRead = tb.server().ssd().bytesRead();
    res.ssdBytesWritten = tb.server().ssd().bytesWritten();
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
        if (cfg.withAqua) {
            for (const placer::Pairing &pair : placement.pairs) {
                if (pair.server != static_cast<int>(s))
                    continue;
                tb.assign(localGpu(pair.consumerModel),
                          localGpu(pair.producerModel));
            }
        }

        // Engines; keep them alive until the run completes.
        std::vector<Producer> producers;
        std::vector<std::unique_ptr<serve::VllmEngine>> llms;
        std::vector<std::unique_ptr<serve::FlexGenEngine>> longPrompts;
        std::vector<serve::VllmEngine *> loraEngines;
        std::vector<serve::VllmEngine *> cfsEngines;

        for (int modelIdx : members) {
            const placer::ModelToPlace &m = input.models[modelIdx];
            hw::GpuId gpu = localGpu(modelIdx);
            model::ModelSpec spec = presetByName(m.name);

            if (m.isProducer()) {
                core::AquaLib *lib =
                    cfg.withAqua
                        ? &tb.makeAquaLib(gpu, makeInformerFor(spec))
                        : nullptr;
                producers.push_back(makeProducer(
                    tb, gpu, m.name, cfg.durationSec, lib, traces));
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
                longPrompts.push_back(std::move(engine));
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

        for (const auto &engine : longPrompts) {
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
        for (const Producer &p : producers)
            if (p.batch)
                result.producerItems += p.batch->itemsGenerated();
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
