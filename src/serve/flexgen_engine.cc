#include "serve/flexgen_engine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

namespace {

/** Prompt tokens processed per prefill iteration. */
constexpr std::uint32_t chunkTokens = 512;
/** Call backend->respond() every this many iterations. */
constexpr std::uint32_t respondEveryIters = 2;

} // anonymous namespace

FlexGenEngine::FlexGenEngine(hw::Server &server, hw::GpuId gpu,
                             const model::ModelSpec &modelSpec,
                             OffloadBackend &backend,
                             FlexGenConfig config)
    : server(server), myGpu(gpu), spec(modelSpec),
      perf(spec, server.gpu(gpu).spec()), cfg(config),
      backend(backend), tokens("tokens")
{
    if (!spec.isText())
        panic("FlexGenEngine: %s is not a text model",
              spec.name.c_str());
    if (cfg.streamWeights) {
        // ZeRO mode: only runtime buffers plus a per-layer working
        // set live on the GPU; the weights sit in the offload store.
        std::uint64_t base = spec.runtimeOverheadBytes +
                             spec.weightBytes() / spec.nLayers;
        weightsRegion = server.gpu(gpu).hbm().allocate(base);
        if (!weightsRegion) {
            panic("FlexGenEngine: working set of %s does not fit "
                  "on %s", spec.name.c_str(),
                  server.gpu(gpu).name().c_str());
        }
        auto handle = backend.alloc(spec.weightBytes());
        if (!handle) {
            panic("FlexGenEngine: offload store cannot hold %s "
                  "weights", spec.name.c_str());
        }
        weightsHandle = *handle;
        return;
    }
    std::uint64_t base = spec.weightBytes() + spec.runtimeOverheadBytes;
    weightsRegion = server.gpu(gpu).hbm().allocate(base);
    if (!weightsRegion) {
        panic("FlexGenEngine: %s does not fit on %s",
              spec.name.c_str(), server.gpu(gpu).name().c_str());
    }
}

FlexGenEngine::~FlexGenEngine()
{
    for (auto &active : actives) {
        if (active->handle.valid())
            backend.free(active->handle);
    }
    if (weightsHandle.valid())
        backend.free(weightsHandle);
    if (weightsRegion)
        server.gpu(myGpu).hbm().free(*weightsRegion);
}

void
FlexGenEngine::submit(const workload::Request &request)
{
    if (request.arrival > server.simulation().now()) {
        workload::Request r = request;
        server.simulation().queue().schedule(r.arrival, [this, r] {
            submit(r);
        });
        return;
    }
    pending.push_back(request);
    scheduleStep(server.simulation().now());
}

void
FlexGenEngine::scheduleStep(Tick when)
{
    if (stepPending)
        return;
    EventQueue &q = server.simulation().queue();
    stepPending = true;
    q.schedule(when, [this] {
        stepPending = false;
        step();
    });
}

void
FlexGenEngine::admit(const workload::Request &request)
{
    auto a = std::make_unique<Active>();
    a->request = request;
    a->metrics.id = request.id;
    a->metrics.arrival = request.arrival;
    a->metrics.deadline = request.deadline;
    a->metrics.admitted = server.simulation().now();
    // The whole inference context is one offloaded tensor sized for
    // prompt plus generation budget; AQUA decides where it lives.
    std::uint64_t bytes = spec.kvBytes(
        std::uint64_t(request.promptTokens) + request.maxNewTokens);
    auto handle = backend.alloc(bytes);
    if (!handle) {
        panic("FlexGenEngine: backend cannot hold %llu context bytes",
              static_cast<unsigned long long>(bytes));
    }
    a->handle = *handle;
    actives.push_back(std::move(a));
}

FlexGenEngine::Active *
FlexGenEngine::select()
{
    if (cfg.fairSliceTokens == 0) {
        // FIFO run-to-completion: one stream at a time.
        if (actives.empty() && !pending.empty()) {
            admit(pending.front());
            pending.pop_front();
        }
        return actives.empty() ? nullptr : actives.front().get();
    }
    // CFS: every queued prompt competes; contexts live offloaded, so
    // admitting all of them costs no GPU memory.
    for (const workload::Request &r : pending)
        admit(r);
    pending.clear();
    Active *least = nullptr;
    for (auto &a : actives) {
        if (!least || a->generated < least->generated ||
            (a->generated == least->generated &&
             a->request.arrival < least->request.arrival))
            least = a.get();
    }
    return least;
}

void
FlexGenEngine::finishActive(Active *active, Tick when)
{
    active->metrics.finish = when;
    active->metrics.tokensGenerated = active->generated;
    finishedMetrics.push_back(active->metrics);
    if (completionCb) {
        workload::RequestMetrics m = active->metrics;
        server.simulation().queue().schedule(when, [this, m] {
            completionCb(m);
        });
    }
    backend.free(active->handle);
    auto it = std::find_if(actives.begin(), actives.end(),
                           [&](const std::unique_ptr<Active> &a) {
                               return a.get() == active;
                           });
    actives.erase(it);
    if (current == active)
        current = nullptr;
}

void
FlexGenEngine::step()
{
    if (!current) {
        current = select();
        tokensIntoSlice = 0;
        if (!current)
            return; // idle; next submit() wakes us
    }

    Tick now = server.simulation().now();
    Tick transfersDone = now;
    if (++itersSinceRespond >= respondEveryIters) {
        itersSinceRespond = 0;
        Tick blocked = backend.respond();
        if (blocked > transfersDone)
            transfersDone = blocked;
    }

    Active &a = *current;
    // ZeRO mode streams the whole weight set through the GPU each
    // iteration, layer by layer.
    if (cfg.streamWeights) {
        hw::TransferTiming w = backend.read(
            weightsHandle, spec.weightBytes(), spec.nLayers,
            transfersDone);
        transfersDone = w.complete;
    }
    Tick iterDone;
    if (!a.prefillDone) {
        std::uint32_t chunk =
            std::min(chunkTokens,
                     a.request.promptTokens - a.processedPrompt);
        // Attention over the earlier tokens needs their KV streamed
        // back in.
        if (a.processedPrompt > 0) {
            hw::TransferTiming in = backend.read(
                a.handle, spec.kvBytes(a.processedPrompt), 1,
                transfersDone);
            transfersDone = in.complete;
        }
        Tick computed = server.gpu(myGpu).submitComputeAfter(
            transfersDone, perf.prefillTime(chunk));
        hw::TransferTiming out = backend.write(
            a.handle, spec.kvBytes(chunk), 1, computed);
        a.processedPrompt += chunk;
        iterDone = std::max(computed, out.complete);
        if (a.processedPrompt >= a.request.promptTokens) {
            a.prefillDone = true;
            // Prefill emits the first token.
            a.generated = 1;
            a.metrics.firstToken = iterDone;
            ++tokensTotal;
            ++tokensIntoSlice;
            tokens.record(iterDone, 1.0);
        }
    } else {
        // One decode step: stream the sequence KV in, append one
        // token's KV.
        std::uint64_t seqTokens =
            std::uint64_t(a.request.promptTokens) + a.generated;
        hw::TransferTiming in = backend.read(
            a.handle, spec.kvBytes(seqTokens), 1, transfersDone);
        Tick computed = server.gpu(myGpu).submitComputeAfter(
            in.complete, perf.decodeStepTime(1, 0));
        hw::TransferTiming out =
            backend.write(a.handle, spec.kvBytes(1), 1, computed);
        iterDone = std::max(computed, out.complete);
        ++a.generated;
        ++tokensTotal;
        ++tokensIntoSlice;
        tokens.record(iterDone, 1.0);
    }

    if (a.prefillDone && a.generated >= a.request.maxNewTokens) {
        finishActive(&a, iterDone);
    } else if (cfg.fairSliceTokens != 0 &&
               tokensIntoSlice >= cfg.fairSliceTokens) {
        // Slice expired: re-select the least-served stream next step.
        current = nullptr;
    }

    if (current || !actives.empty() || !pending.empty())
        scheduleStep(iterDone);
    else if (backend.name() == "aqua")
        // Keep answering /respond while idle so producers can reclaim.
        scheduleStep(iterDone + 100 * nsPerMs);
}

} // namespace aqua::serve
