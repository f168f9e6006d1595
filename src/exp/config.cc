#include "exp/config.hh"

#include <algorithm>

#include "exp/experiments.hh"
#include "hw/gpu_spec.hh"
#include "model/model_spec.hh"
#include "placer/placer.hh"
#include "stats/summary.hh"

namespace aqua::exp {

using json::Array;
using json::Value;

namespace {

/** Parse a ServeMode name; empty optional on garbage. */
std::optional<ServeMode>
parseServeMode(const std::string &name)
{
    if (name == "vllm")
        return ServeMode::VllmBaseline;
    if (name == "vllm+cfs" || name == "cfs")
        return ServeMode::CfsDram;
    if (name == "aqua")
        return ServeMode::CfsAqua;
    return std::nullopt;
}

std::optional<OffloadMode>
parseOffloadMode(const std::string &name)
{
    if (name == "dram")
        return OffloadMode::Dram;
    if (name == "aqua")
        return OffloadMode::Aqua;
    if (name == "aqua-unstaged")
        return OffloadMode::AquaUnstaged;
    return std::nullopt;
}

bool
knownModel(const std::string &name)
{
    const auto &names = model::presetNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

Value
metricsToJson(const std::vector<workload::RequestMetrics> &metrics)
{
    stats::Summary ttft;
    stats::Summary rct;
    Array perRequest;
    for (const workload::RequestMetrics &m : metrics) {
        Value row;
        row["id"] = m.id;
        if (m.started()) {
            row["ttft_s"] = m.ttftSec();
            ttft.add(m.ttftSec());
        }
        if (m.finished()) {
            row["rct_s"] = m.rctSec();
            rct.add(m.rctSec());
        }
        row["tokens"] = m.tokensGenerated;
        perRequest.push_back(std::move(row));
    }
    Value out;
    out["finished"] = static_cast<std::int64_t>(metrics.size());
    if (!ttft.empty()) {
        out["ttft_p50_s"] = ttft.median();
        out["ttft_p95_s"] = ttft.p95();
    }
    if (!rct.empty()) {
        out["rct_p50_s"] = rct.median();
        out["rct_p95_s"] = rct.p95();
    }
    out["requests"] = Value(std::move(perRequest));
    return out;
}

ConfigRunResult
fail(const std::string &why)
{
    ConfigRunResult r;
    r.ok = false;
    r.error = why;
    return r;
}

ConfigRunResult
succeed(Value results)
{
    ConfigRunResult r;
    r.ok = true;
    r.results = std::move(results);
    return r;
}

ConfigRunResult
runCfs(const Value &spec)
{
    CfsExperimentConfig cfg;
    auto mode = parseServeMode(spec.getString("mode", "aqua"));
    if (!mode)
        return fail("cfs: unknown mode (vllm|vllm+cfs|aqua)");
    cfg.mode = *mode;
    cfg.ratePerSec = spec.getDouble("rate_per_sec", cfg.ratePerSec);
    cfg.numRequests = static_cast<std::size_t>(
        spec.getInt("num_requests",
                    static_cast<std::int64_t>(cfg.numRequests)));
    cfg.consumerModel =
        spec.getString("consumer", cfg.consumerModel);
    cfg.producerModel =
        spec.getString("producer", cfg.producerModel);
    cfg.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    cfg.sliceTokens = static_cast<std::uint32_t>(
        spec.getInt("slice_tokens", cfg.sliceTokens));
    if (!knownModel(cfg.consumerModel) ||
        !knownModel(cfg.producerModel))
        return fail("cfs: unknown model preset");

    CfsExperimentResult r = runCfsExperiment(cfg);
    Value out = metricsToJson(r.metrics);
    out["swap_outs"] = r.swapOuts;
    out["producer_throughput"] = r.producerThroughput;
    return succeed(std::move(out));
}

ConfigRunResult
runLongPromptSpec(const Value &spec)
{
    LongPromptConfig cfg;
    auto mode = parseOffloadMode(spec.getString("mode", "aqua"));
    if (!mode)
        return fail("long_prompt: unknown mode "
                    "(dram|aqua|aqua-unstaged)");
    cfg.mode = *mode;
    cfg.producerModel =
        spec.getString("producer", cfg.producerModel);
    cfg.promptTokens = static_cast<std::uint32_t>(
        spec.getInt("prompt_tokens", cfg.promptTokens));
    cfg.durationSec =
        spec.getDouble("duration_s", cfg.durationSec);
    cfg.pairs = static_cast<std::size_t>(spec.getInt("pairs", 1));
    cfg.sharedProducer = spec.getBool("shared_producer", false);
    cfg.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    if (!knownModel(cfg.producerModel))
        return fail("long_prompt: unknown producer preset");
    if (cfg.pairs < 1 || cfg.pairs > 8)
        return fail("long_prompt: pairs must be in [1, 8]");

    LongPromptResult r = runLongPrompt(cfg);
    Value out;
    Array per;
    for (std::uint64_t t : r.tokensPerConsumer)
        per.emplace_back(static_cast<std::int64_t>(t));
    out["tokens_per_consumer"] = Value(std::move(per));
    out["total_tokens"] = r.totalTokens;
    return succeed(std::move(out));
}

ConfigRunResult
runLoraSpec(const Value &spec)
{
    LoraExperimentConfig cfg;
    auto mode = parseOffloadMode(spec.getString("mode", "aqua"));
    if (!mode)
        return fail("lora: unknown mode (dram|aqua|aqua-unstaged)");
    cfg.mode = *mode;
    cfg.producerModel =
        spec.getString("producer", cfg.producerModel);
    cfg.numAdapters = static_cast<std::uint32_t>(
        spec.getInt("num_adapters", cfg.numAdapters));
    cfg.adapterBytes = static_cast<std::uint64_t>(
        spec.getInt("adapter_bytes",
                    static_cast<std::int64_t>(cfg.adapterBytes)));
    cfg.cacheBytes = static_cast<std::uint64_t>(
        spec.getInt("cache_bytes",
                    static_cast<std::int64_t>(cfg.cacheBytes)));
    cfg.ratePerSec = spec.getDouble("rate_per_sec", cfg.ratePerSec);
    cfg.numRequests = static_cast<std::size_t>(
        spec.getInt("num_requests",
                    static_cast<std::int64_t>(cfg.numRequests)));
    cfg.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    if (!knownModel(cfg.producerModel))
        return fail("lora: unknown producer preset");
    if (cfg.numAdapters == 0)
        return fail("lora: num_adapters must be positive");

    LoraExperimentResult r = runLoraExperiment(cfg);
    Value out = metricsToJson(r.metrics);
    out["cache_hits"] = r.cacheHits;
    out["cache_misses"] = r.cacheMisses;
    return succeed(std::move(out));
}

ConfigRunResult
runElasticSpec(const Value &spec)
{
    ElasticExperimentConfig cfg;
    cfg.withAqua = spec.getBool("with_aqua", true);
    cfg.durationSec = spec.getDouble("duration_s", cfg.durationSec);
    cfg.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    ElasticExperimentResult r = runElasticExperiment(cfg);

    Value out;
    Array freeMem;
    for (const stats::Point &p : r.producerFreeMemory) {
        Value row;
        row["t_s"] = sim::ticksToSec(p.when);
        row["bytes"] = p.value;
        freeMem.push_back(std::move(row));
    }
    out["producer_free_memory"] = Value(std::move(freeMem));
    Array tput;
    for (const stats::Point &p : r.consumerThroughput) {
        Value row;
        row["t_s"] = sim::ticksToSec(p.when);
        row["tokens"] = p.value;
        tput.push_back(std::move(row));
    }
    out["consumer_throughput"] = Value(std::move(tput));
    out["consumer_tokens"] = r.consumerTokens;
    out["producer"] = metricsToJson(r.producerMetrics);
    return succeed(std::move(out));
}

ConfigRunResult
runChatbotSpec(const Value &spec)
{
    ChatbotConfig cfg;
    auto mode = parseServeMode(spec.getString("mode", "aqua"));
    if (!mode)
        return fail("chatbot: unknown mode (vllm|vllm+cfs|aqua)");
    cfg.mode = *mode;
    cfg.users = static_cast<std::uint32_t>(
        spec.getInt("users", cfg.users));
    cfg.turns = static_cast<std::uint32_t>(
        spec.getInt("turns", cfg.turns));
    cfg.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    if (cfg.users == 0 || cfg.turns == 0)
        return fail("chatbot: users and turns must be positive");

    ChatbotResult r = runChatbot(cfg);
    Value out;
    Array rows;
    for (const auto &tm : r.metrics) {
        Value row;
        row["turn"] = tm.turn;
        row["id"] = tm.metrics.id;
        if (tm.metrics.finished())
            row["rct_s"] = tm.metrics.rctSec();
        rows.push_back(std::move(row));
    }
    out["requests"] = Value(std::move(rows));
    out["finished"] = static_cast<std::int64_t>(r.metrics.size());
    return succeed(std::move(out));
}

ConfigRunResult
runContentionSpec(const Value &spec)
{
    std::string modelName = spec.getString("model", "Llama-2-13B");
    if (!knownModel(modelName))
        return fail("contention: unknown model preset");
    std::vector<std::uint32_t> batches;
    if (const Value *arr = spec.find("batch_sizes");
        arr && arr->isArray()) {
        for (const Value &v : arr->asArray()) {
            if (!v.isNumber() || v.asInt() <= 0)
                return fail("contention: batch sizes must be "
                            "positive integers");
            batches.push_back(
                static_cast<std::uint32_t>(v.asInt()));
        }
    } else {
        batches = {1, 2, 4, 8, 16, 32, 64};
    }
    Value out;
    Array rows;
    for (const ContentionPoint &p :
         contentionSweep(modelName, batches)) {
        Value row;
        row["batch"] = p.batchSize;
        row["throughput"] = p.throughput;
        row["free_memory_gb"] = p.freeMemoryGb;
        rows.push_back(std::move(row));
    }
    out["points"] = Value(std::move(rows));
    return succeed(std::move(out));
}

ConfigRunResult
runPlacementSpec(const Value &spec)
{
    placer::PlacementInput input;
    input.numServers = static_cast<std::size_t>(
        spec.getInt("servers", 0));
    input.gpusPerServer = static_cast<std::size_t>(
        spec.getInt("gpus_per_server", 0));
    input.gpuMemBytes = hw::a100_80g().hbmBytes;
    std::string split = spec.getString("split", "");
    if (!split.empty()) {
        if (split != "balanced" && split != "llm-heavy")
            return fail("placement: split must be balanced or "
                        "llm-heavy");
        if (input.numServers == 0 || input.gpusPerServer == 0)
            return fail("placement: servers and gpus_per_server "
                        "required");
        input = makeClusterInput(
            input.numServers, input.gpusPerServer, split,
            static_cast<std::uint64_t>(spec.getInt("seed", 1)));
    } else if (const Value *models = spec.find("models");
               models && models->isArray()) {
        if (input.numServers == 0 || input.gpusPerServer == 0)
            return fail("placement: servers and gpus_per_server "
                        "required");
        for (const Value &m : models->asArray()) {
            placer::ModelToPlace entry;
            entry.name = m.getString("name", "?");
            entry.memBytes = m.getInt("mem_bytes", 0);
            input.models.push_back(entry);
        }
    } else {
        return fail("placement: need a split or a models array");
    }

    opt::MilpOptions milpOpt;
    milpOpt.maxNodes = static_cast<std::uint64_t>(
        spec.getInt("max_nodes", 20000));
    placer::Placement p = placer::AquaPlacer(milpOpt).place(input);
    if (!p.valid())
        return fail("placement: infeasible instance "
                    "(more models than GPUs?)");
    Value out;
    Array assignment;
    for (std::size_t m = 0; m < input.models.size(); ++m) {
        Value row;
        row["model"] = input.models[m].name;
        row["mem_bytes"] = input.models[m].memBytes;
        row["server"] = p.server[m];
        assignment.push_back(std::move(row));
    }
    out["assignment"] = Value(std::move(assignment));
    Array pairs;
    for (const placer::Pairing &pair : p.pairs) {
        Value row;
        row["server"] = pair.server;
        row["consumer"] = input.models[pair.consumerModel].name;
        row["producer"] = input.models[pair.producerModel].name;
        pairs.push_back(std::move(row));
    }
    out["pairs"] = Value(std::move(pairs));
    out["objective"] = p.objective;
    out["optimal"] = p.optimal;
    out["nodes"] = p.nodesExplored;
    out["lp_iterations"] = p.lpIterations;
    return succeed(std::move(out));
}

} // anonymous namespace

namespace {

ConfigRunResult
runEndToEndSpec(const Value &spec)
{
    EndToEndConfig cfg;
    cfg.split = spec.getString("split", cfg.split);
    if (cfg.split != "balanced" && cfg.split != "llm-heavy")
        return fail("e2e: split must be balanced or llm-heavy");
    cfg.withAqua = spec.getBool("with_aqua", true);
    cfg.numServers = static_cast<std::size_t>(
        spec.getInt("servers",
                    static_cast<std::int64_t>(cfg.numServers)));
    cfg.durationSec = spec.getDouble("duration_s", cfg.durationSec);
    cfg.seed = static_cast<std::uint64_t>(spec.getInt("seed", 1));
    if (cfg.numServers == 0)
        return fail("e2e: servers must be positive");

    EndToEndResult r = runEndToEnd(cfg);
    Value out;
    out["long_prompt_tokens"] = r.longPromptTokens;
    out["long_prompt_consumers"] =
        static_cast<std::int64_t>(r.longPromptConsumers);
    out["paired_consumers"] =
        static_cast<std::int64_t>(r.pairedConsumers);
    out["total_consumers"] =
        static_cast<std::int64_t>(r.totalConsumers);
    out["producer_items"] = r.producerItems;
    out["lora"] = metricsToJson(r.loraMetrics);
    out["cfs"] = metricsToJson(r.cfsMetrics);
    return succeed(std::move(out));
}

} // anonymous namespace

ConfigRunResult
runFromJson(const Value &spec)
{
    if (!spec.isObject())
        return fail("spec must be a JSON object");
    std::string experiment = spec.getString("experiment", "");
    if (experiment == "cfs")
        return runCfs(spec);
    if (experiment == "e2e")
        return runEndToEndSpec(spec);
    if (experiment == "long_prompt")
        return runLongPromptSpec(spec);
    if (experiment == "lora")
        return runLoraSpec(spec);
    if (experiment == "elastic")
        return runElasticSpec(spec);
    if (experiment == "chatbot")
        return runChatbotSpec(spec);
    if (experiment == "contention")
        return runContentionSpec(spec);
    if (experiment == "placement")
        return runPlacementSpec(spec);
    return fail("unknown experiment '" + experiment +
                "' (cfs|long_prompt|lora|elastic|chatbot|"
                "contention|placement|e2e)");
}

ConfigRunResult
runFromJsonText(const std::string &text)
{
    json::ParseResult parsed = json::parse(text);
    if (!parsed.ok)
        return fail("json parse error at " +
                    std::to_string(parsed.line) + ":" +
                    std::to_string(parsed.column) + ": " +
                    parsed.error);
    return runFromJson(parsed.value);
}

} // namespace aqua::exp
