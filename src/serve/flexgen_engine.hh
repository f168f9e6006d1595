/**
 * @file
 * FlexGen-style long-prompt inference engine (§6 "Long prompts").
 *
 * FlexGen targets high-throughput, non-interactive inference where the
 * prompt's KV cache does not fit beside the weights (e.g. an
 * 8,000-token prompt on OPT-30B). The inference context lives in the
 * offload backend and streams through the GPU:
 *
 *  - prefill runs in chunks; each chunk's attention reads the KV of
 *    all earlier tokens from the backend and writes the chunk's KV
 *    back out;
 *  - each decode step streams the whole sequence KV in for attention
 *    and appends one token's KV.
 *
 * Throughput is therefore bound by the backend's link — PCIe for the
 * DRAM baseline, NVLink when AQUA places the tensor on a peer GPU —
 * which is exactly the 6X of Fig. 7/10.
 */

#ifndef AQUA_SERVE_FLEXGEN_ENGINE_HH
#define AQUA_SERVE_FLEXGEN_ENGINE_HH

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "model/perf_model.hh"
#include "serve/offload_backend.hh"
#include "stats/timeseries.hh"
#include "workload/request.hh"

namespace aqua::serve {

/** FlexGen engine tunables. */
struct FlexGenConfig
{
    /**
     * Completely fair scheduling across queued prompts (§5 applies
     * CFS to FlexGen too): after this many generated tokens the
     * engine rotates to the least-served queued prompt. 0 = FIFO
     * (FlexGen's default run-to-completion). Context switching is
     * nearly free here — every prompt's context already lives in
     * the offload backend.
     */
    std::uint32_t fairSliceTokens = 0;
    /**
     * DeepSpeed-ZeRO-Inference mode (§9 related work): the weights
     * also live in the offload store and stream through the GPU
     * layer by layer every iteration. Serves models larger than
     * HBM, at the cost of moving the full weight set per step —
     * which is why FlexGen's KV-only offloading beats it, and why
     * AQUA helps it even more ("similar benefits can extend to
     * Deepspeed").
     */
    bool streamWeights = false;
};

/**
 * Single-stream offloaded inference engine.
 */
class FlexGenEngine
{
  public:
    using CompletionCallback =
        std::function<void(const workload::RequestMetrics &)>;

    FlexGenEngine(hw::Server &server, hw::GpuId gpu,
                  const model::ModelSpec &modelSpec,
                  OffloadBackend &backend, FlexGenConfig config = {});

    FlexGenEngine(const FlexGenEngine &) = delete;
    FlexGenEngine &operator=(const FlexGenEngine &) = delete;
    ~FlexGenEngine();

    /** Queue a (typically long) prompt. */
    void submit(const workload::Request &request);

    void onComplete(CompletionCallback cb) { completionCb = std::move(cb); }

    hw::GpuId gpuId() const { return myGpu; }
    std::uint64_t totalTokens() const { return tokensTotal; }
    const stats::TimeSeries &tokenSeries() const { return tokens; }
    const std::vector<workload::RequestMetrics> &
    finished() const
    {
        return finishedMetrics;
    }

  private:
    struct Active
    {
        workload::Request request;
        workload::RequestMetrics metrics;
        OffloadBackend::Handle handle;
        std::uint32_t processedPrompt = 0;
        std::uint32_t generated = 0;
        bool prefillDone = false;
    };

    void scheduleStep(aqua::sim::Tick when);
    void step();
    /** Start a queued request: allocate its offloaded context. */
    void admit(const workload::Request &request);
    /** Pick the stream to run (FIFO or least-served under CFS). */
    Active *select();
    void finishActive(Active *active, aqua::sim::Tick when);

    hw::Server &server;
    hw::GpuId myGpu;
    model::ModelSpec spec;
    model::PerfModel perf;
    FlexGenConfig cfg;
    OffloadBackend &backend;

    std::optional<aqua::mem::Region> weightsRegion;
    /** Offloaded weights when cfg.streamWeights is set. */
    OffloadBackend::Handle weightsHandle;
    std::deque<workload::Request> pending;
    std::vector<std::unique_ptr<Active>> actives;
    Active *current = nullptr;
    std::uint32_t tokensIntoSlice = 0;

    CompletionCallback completionCb;
    std::vector<workload::RequestMetrics> finishedMetrics;

    bool stepPending = false;
    std::uint32_t itersSinceRespond = 0;
    std::uint64_t tokensTotal = 0;
    stats::TimeSeries tokens;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_FLEXGEN_ENGINE_HH
