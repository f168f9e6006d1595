#include "serve/vllm_engine.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

namespace {

/** Call backend->respond() every this many iterations. */
constexpr std::uint32_t respondEveryIters = 4;
/** Run the storage tier's demotion settle pass every this many
 *  iterations (no-op unless an SsdTier is attached). */
constexpr std::uint32_t tierSettleEveryIters = 8;
/** Housekeeping cadence while idle. */
constexpr Tick idleTickPeriod = 100 * nsPerMs;
/** Fraction of post-weights free HBM reserved as the KV pool. */
constexpr double kvPoolFraction = 0.95;

/** The served ModelSpec with the config's KV precision applied (run
 *  before perf/kv are constructed from it). */
model::ModelSpec
applyKvConfig(model::ModelSpec spec, const VllmEngineConfig &cfg)
{
    spec.kvPrecision = cfg.kvPrecision;
    return spec;
}

/** Age of the oldest request in @p waiting, seconds. */
double
oldestWaitingSec(const std::vector<Sequence *> &waiting, Tick now)
{
    Tick oldest = now;
    for (const Sequence *s : waiting)
        oldest = std::min(oldest, s->request.arrival);
    return ticksToSec(now - oldest);
}

/** Remove a sequence pointer from a list. */
void
removeFrom(std::vector<Sequence *> &list, Sequence *s)
{
    auto it = std::find(list.begin(), list.end(), s);
    if (it != list.end())
        list.erase(it);
}

} // anonymous namespace

VllmEngine::VllmEngine(hw::Server &server, hw::GpuId gpu,
                       const model::ModelSpec &modelSpec,
                       std::unique_ptr<SchedulerPolicy> schedPolicy,
                       OffloadBackend &backend, VllmEngineConfig config,
                       std::vector<model::LoraAdapter> adapters)
    : server(server), myGpu(gpu),
      spec(applyKvConfig(modelSpec, config)),
      perf(spec, server.gpu(gpu).spec()), cfg(config),
      policy(std::move(schedPolicy)), backend(backend),
      aquaBackend(backend.name() == "aqua"), integrity(server),
      tokens("tokens"), freeMem("free_memory")
{
    if (!spec.isText())
        panic("VllmEngine: %s is not a text model", spec.name.c_str());
    // Validates the range; 1.0 (dense) leaves the model untouched.
    perf.setSparseReadFraction(cfg.sparseReadFraction);
    hw::Gpu &dev = server.gpu(gpu);

    std::uint64_t base = spec.weightBytes() + spec.runtimeOverheadBytes;
    weightsRegion = dev.hbm().allocate(base);
    if (!weightsRegion) {
        panic("VllmEngine: %s does not fit on %s (%llu bytes needed)",
              spec.name.c_str(), dev.name().c_str(),
              static_cast<unsigned long long>(base));
    }

    if (cfg.lora) {
        if (adapters.empty())
            panic("VllmEngine: LoRA cache enabled with no adapters");
        lora = std::make_unique<LoraCache>(dev, backend,
                                           std::move(adapters),
                                           *cfg.lora);
    }

    std::uint64_t pool = cfg.kvPoolBytesOverride;
    if (pool == 0) {
        pool = static_cast<std::uint64_t>(
            static_cast<double>(dev.hbm().freeBytes()) *
            kvPoolFraction);
    }
    kv = std::make_unique<KvCache>(dev, spec, pool, blockTokens);
    if (cfg.maxCacheShare < 1.0)
        kv->setMaxCacheShare(cfg.maxCacheShare);
    kv->setEvictionPolicy(cfg.prefixEviction);
    swaps = std::make_unique<SwapStore>(server, perf, spec.kvPrecision,
                                        *kv, backend, cfg.prefixCache,
                                        prefixStats, integrity);
    controls = overload::Controls(cfg.overload, perf, cfg.maxBatch,
                                  kv->poolBytes());
    if (cfg.prefixCache)
        prefix.emplace(server, myGpu, cfg, *kv, prefixStats, integrity,
                       controls);
}

VllmEngine::~VllmEngine()
{
    // Unwind cluster-registry state first: outstanding read leases,
    // then (in ~PrefixCache) every chain this engine advertised.
    if (prefix) {
        for (auto &seq : all)
            prefix->releaseLead(seq.get());
        prefix.reset();
    }
    // Release swapped sequences' offloaded KV, then (in ~SwapStore)
    // the shared-prefix group copies.
    for (Sequence *s : swapped)
        swaps->discard(s);
    swaps.reset();
    // kv and lora free their reservations before weightsRegion.
    kv.reset();
    lora.reset();
    if (weightsRegion)
        server.gpu(myGpu).hbm().free(*weightsRegion);
}

void
VllmEngine::attachAquaLib(core::AquaLib *lib)
{
    aquaLib = lib;
    // Kick the housekeeping loop so an idle producer still informs.
    scheduleStep(server.simulation().now());
}

void
VllmEngine::attachClusterPrefix(cluster::PrefixRegistry *registry,
                                core::AquaLib *lib)
{
    if (prefix)
        prefix->attachRegistry(cfg.clusterPrefix ? registry : nullptr, lib);
}

void
VllmEngine::attachFederation(hw::Fabric *fabric,
                             std::uint32_t serverIndex,
                             core::AquaLib *lib)
{
    if (prefix && fabric && lib)
        prefix->attachFabric(*fabric, serverIndex, *lib, perf);
}

void
VllmEngine::setTraceLog(trace::TraceLog *log)
{
    integrity.setTraceLog(log);
    if (prefix)
        prefix->setTraceLog(log);
    controls.setTraceLog(log);
}

void
VllmEngine::submit(const workload::Request &request)
{
    // Accept early submissions: the request only becomes visible to
    // the scheduler at its arrival time.
    if (request.arrival > server.simulation().now()) {
        workload::Request r = request;
        server.simulation().queue().schedule(r.arrival, [this, r] {
            submit(r);
        });
        return;
    }
    auto seq = std::make_unique<Sequence>();
    seq->request = request;
    // Every chain query sits behind the prefix cache: other engines
    // skip the chain's per-sequence token-function copy.
    if (prefix)
        prefix->track(seq.get());
    seq->metrics.id = request.id;
    seq->metrics.arrival = request.arrival;
    seq->metrics.deadline = request.deadline;
    Sequence *raw = seq.get();
    all.push_back(std::move(seq));
    waiting.push_back(raw);
    ++arrivalsSinceInform;

    // Brownout fast-fail at the door.
    Tick now = server.simulation().now();
    overload::ShedReason door = controls.atArrival(
        request.bestEffort, [&] { return queueSnapshot(now); });
    if (door != overload::ShedReason::None) {
        shedSeq(raw, door, now);
        return;
    }
    swaps->beginResume(raw, [this] { wake(); });
    // A cross-server fetch never overlaps a resume stream.
    if (prefix && !raw->stream.pending())
        prefix->beginFetch(raw, [this] { wake(); });
    needResched = true;
    scheduleStep(now);
}

void
VllmEngine::wake()
{
    needResched = true;
    scheduleStep(server.simulation().now());
}

void
VllmEngine::scheduleStep(Tick when)
{
    EventQueue &q = server.simulation().queue();
    when = std::max(when, q.now());
    if (stepPending)
        return;
    stepPending = true;
    q.schedule(when, [this] {
        stepPending = false;
        step();
    });
}

void
VllmEngine::recordFreeMemory()
{
    Tick now = server.simulation().now();
    std::uint64_t visible = server.gpu(myGpu).hbm().freeBytes();
    if (aquaLib)
        visible += aquaLib->leasedBytes();
    freeMem.record(now, static_cast<double>(visible));
}

void
VllmEngine::doInform()
{
    core::EngineStats st;
    st.now = server.simulation().now();
    st.pendingRequests = waiting.size();
    st.runningRequests = running.size() + swapped.size();
    st.arrivalsSinceLast = arrivalsSinceInform;
    st.freePoolBytes = kv->freeBytes();
    st.reservedPoolBytes = kv->poolBytes();
    // Backpressure signals: queue delay and sheds tell the informer
    // the engine is hurting, so it reclaims leased memory before the
    // queue (and the shed rate) grows further.
    st.queueDelaySec = oldestWaitingSec(waiting, st.now);
    st.shedsSinceLast = controls.takeShedsSinceInform();
    st.registryHits = prefixStats.registryHits;
    st.registryMisses = prefixStats.registryMisses;
    st.remotePrefixBytes =
        prefixStats.remoteCopyBytes + prefixStats.remoteDecodeReadBytes;
    arrivalsSinceInform = 0;

    std::int64_t delta = aquaLib->informStats(st);
    if (delta < 0) {
        std::uint64_t released =
            kv->shrink(static_cast<std::uint64_t>(-delta));
        aquaLib->confirmDonate(released);
    } else if (delta > 0) {
        kv->grow(static_cast<std::uint64_t>(delta));
    }
}

void
VllmEngine::requeueForRecompute(Sequence *s,
                                std::vector<Sequence *> &from)
{
    s->prefilled = false;
    s->prefilledTokens = 0;
    s->state = Sequence::State::Waiting;
    removeFrom(from, s);
    waiting.push_back(s);
    ++nRecomputes;
    needResched = true;
}

void
VllmEngine::swapOutSeq(Sequence *s, Tick &transfersDone)
{
    // vLLM's recompute policy drops the KV; the sequence re-prefills
    // its whole context (prompt + generated) when it is scheduled
    // again. No transfer, but FLOPs later. Also used for sequences
    // caught mid-prefill (vLLM never swaps an unprefilled sequence)
    // and for a borrowed remote lead, which can never swap: the lease
    // is released and the context recomputed (or re-fetched) on
    // readmission.
    bool recompute = cfg.preemption == PreemptionMode::Recompute ||
                     !s->prefilled || s->lead.blocks > 0;
    // With prefix caching the computed context is published first: a
    // swapped prefix stays resident (index references survive the
    // frees below), and a re-prefill resumes from whatever the cache
    // still holds at readmission.
    if (prefix && s->prefilled)
        prefix->publish(s);
    if (!recompute) {
        // Overload control hands the store its verdicts: divert to the
        // fallback while the circuit breaker is open, at which
        // precision.
        SwapStore::Payload tail =
            swaps->swapOut(s, controls.divertSwaps(),
                           controls.coldPrecision(), transfersDone);
        controls.notePayload(tail.servingBytes, tail.storedBytes);
    }
    if (prefix)
        prefix->release(s);
    kv->freeBlocks(s->blocks);
    s->blocks.clear();
    if (recompute) {
        requeueForRecompute(s, running);
        return;
    }
    s->state = Sequence::State::Swapped;
    removeFrom(running, s);
    swapped.push_back(s);
    ++nSwapOuts;
}

bool
VllmEngine::swapInSeq(Sequence *s, Tick &transfersDone)
{
    switch (swaps->swapIn(s, transfersDone)) {
      case SwapStore::Restore::NoRoom:
        return false;
      case SwapStore::Restore::Rotted:
        requeueForRecompute(s, swapped);
        // The abort consumed backend work (the read happened); report
        // progress so the scheduler's transfer window stays honest.
        return true;
      case SwapStore::Restore::Done:
        break;
    }
    s->state = Sequence::State::Running;
    removeFrom(swapped, s);
    running.push_back(s);
    ++nSwapIns;
    return true;
}

bool
VllmEngine::admitSeq(Sequence *s, Tick &transfersDone)
{
    // A KV stream (parked-session resume or cross-server fetch) is
    // still landing: hold the sequence in waiting rather than gate the
    // whole iteration's compute on it. The stream's completion
    // callback reschedules.
    if (s->stream.pending())
        return false;
    // A landed stream's context counts as already prefilled (its KV
    // arrives in the blocks allocated below), so only the rest of the
    // prompt is computed.
    std::uint32_t streamed = 0;
    if (s->streamedTokens > 0 && s->prefilledTokens == 0) {
        streamed = std::exchange(s->streamedTokens, 0);
        s->prefilledTokens = streamed;
    }
    // Adapter residency comes first: a missing adapter stalls the
    // iteration for its load (vLLM loads adapters synchronously).
    // Recompute-preempted sequences keep their pin across preemption.
    if (s->request.adapter != model::noLora && !s->adapterHeld) {
        if (!lora)
            panic("VllmEngine: request %llu wants an adapter but the "
                  "LoRA cache is disabled",
                  static_cast<unsigned long long>(s->request.id));
        Tick loaded = 0;
        if (!lora->acquire(s->request.adapter, loaded))
            return false;
        s->adapterHeld = true;
        transfersDone = std::max(transfersDone, loaded);
    }
    // The prefix cache grants the blocks whose prefill is skipped.
    KvCache::PrefixAcquire grant;
    if (prefix && s->prefilledTokens == 0)
        grant = prefix->acquire(s, transfersDone);
    // kvTokens() so a recompute-preempted sequence gets room for its
    // whole regenerated context. A borrowed lead lives on the home GPU;
    // it needs no local blocks.
    std::size_t need = kv->blocksForTokens(s->kvTokens()) - s->lead.blocks;
    auto blocks = kv->allocateBlocks(need - grant.blocks.size());
    if (!blocks) {
        if (prefix)
            prefix->abandon(s, grant);
        releaseAdapter(s);
        return false;
    }
    if (grant.tokens > 0)
        s->prefilledTokens = static_cast<std::uint32_t>(grant.tokens);
    std::size_t grantBlocks = grant.blocks.size();
    s->blocks = std::move(grant.blocks);
    s->blocks.insert(s->blocks.end(), blocks->begin(), blocks->end());
    if (prefix)
        prefix->countHit(s, grantBlocks, grant.tokens, streamed);
    s->state = Sequence::State::Running;
    removeFrom(waiting, s);
    running.push_back(s);
    if (s->metrics.admitted == 0) {
        // First admission only: readmissions after recompute
        // preemption keep the original queue-delay measurement.
        s->metrics.admitted = server.simulation().now();
        controls.recordAdmit();
    }
    return true;
}

void
VllmEngine::finishSeq(Sequence *s, Tick when)
{
    s->state = Sequence::State::Finished;
    // A cold session parks its KV on the storage tier before the
    // blocks go back to the pool: the trace's idle gap is the park
    // predictor (the user is gone long enough that the prefix cache
    // will have evicted this context by the time they return).
    if (s->request.idleGapSec > 0.0) {
        SwapStore::Payload parked =
            swaps->park(s, controls.coldPrecision(), when);
        controls.notePayload(parked.servingBytes, parked.storedBytes);
    }
    // Leave the conversation's KV behind as cache: a follow-up turn
    // that re-sends this context will match it block for block.
    if (prefix)
        prefix->publish(s, /*atFinish=*/true);
    // Nothing hashes a finished sequence again (all keeps it for its
    // metrics), so its memo goes now.
    s->chain.release();
    if (prefix)
        prefix->release(s);
    kv->freeBlocks(s->blocks);
    s->blocks.clear();
    removeFrom(running, s);
    controls.recordCompletion(when, s->request.deadline);
    retire(s, when);
}

void
VllmEngine::shedSeq(Sequence *s, overload::ShedReason reason,
                    Tick when)
{
    s->state = Sequence::State::Finished;
    s->chain.release();
    removeFrom(waiting, s);
    // Stop the stream the request was waiting on, resume or fetch: no
    // further window is issued, and its end releases what it held.
    if (s->stream.pending())
        s->stream.plan->cancel(s->stream.id);
    s->metrics.shed = true;
    controls.recordShed(s->request, reason, when);
    retire(s, when);
}

void
VllmEngine::releaseAdapter(Sequence *s)
{
    if (s->adapterHeld) {
        lora->release(s->request.adapter);
        s->adapterHeld = false;
    }
}

void
VllmEngine::retire(Sequence *s, Tick when)
{
    releaseAdapter(s);
    s->metrics.finish = when;
    // Shed recompute-preempted victims may already have emitted tokens.
    s->metrics.tokensGenerated = s->generated;
    finishedMetrics.push_back(s->metrics);
    needResched = true;
    if (completionCb) {
        workload::RequestMetrics m = s->metrics;
        server.simulation().queue().schedule(when, [this, m] {
            completionCb(m);
        });
    }
}

overload::QueueSnapshot
VllmEngine::queueSnapshot(Tick now) const
{
    overload::QueueSnapshot q;
    q.now = now;
    q.waiting = waiting.size();
    q.swapped = swapped.size();
    q.oldestWaitSec = oldestWaitingSec(waiting, now);
    q.freePoolFraction =
        kv->totalBlocks() > 0
            ? static_cast<double>(kv->availableBlocks()) /
                  static_cast<double>(kv->totalBlocks())
            : 1.0;
    q.reclaiming = aquaLib && aquaLib->reclaimInProgress();
    q.lastEvacuation = backend.lastEvacuationAt();
    q.linkHealth = server.topology().peerLink().degradation();
    return q;
}

void
VllmEngine::step()
{
    Tick now = server.simulation().now();
    Tick transfersDone = now;

    // Northbound housekeeping.
    if (aquaLib && ++itersSinceInform >= cfg.informEveryIters) {
        itersSinceInform = 0;
        doInform();
    }
    if (++itersSinceRespond >= respondEveryIters) {
        itersSinceRespond = 0;
        Tick blocked = backend.respond();
        transfersDone = std::max(transfersDone, blocked);
    }
    if (swaps->hasTier() && ++itersSinceSettle >= tierSettleEveryIters) {
        itersSinceSettle = 0;
        // Under the brownout ladder's ForceDramOffload rung the tier
        // drains DRAM aggressively: the rung reroutes new swaps to
        // DRAM, and the settle pass gives that DRAM somewhere real to
        // spill.
        swaps->settle(now, controls.divertSwaps(), swapped);
    }

    // Sample overload signals before scheduling so this iteration's
    // decisions honour the current brownout level.
    controls.atStep([&] { return queueSnapshot(now); });

    // Scheduling decision. Fair policies re-evaluate at slice
    // boundaries (or when the run set changed); FCFS every iteration.
    std::uint32_t slice = controls.sliceTokens(cfg.cfsSliceTokens);
    SchedulerDecision d;
    bool evaluate = true;
    if (policy->isFair()) {
        evaluate = needResched || running.empty() ||
                   tokensIntoSlice >= slice;
    }
    if (evaluate) {
        SchedulerInput in;
        in.waiting = waiting;
        in.running = running;
        in.swapped = swapped;
        in.kv = kv.get();
        in.maxBatch = cfg.maxBatch;
        in.sliceTokens = slice;
        in.slackTokens = cfg.slackTokens;
        in.prefixCache = cfg.prefixCache;
        in.admission = controls.admissionController();
        in.brownoutLevel = controls.level();
        in.now = now;
        d = policy->schedule(in);
        tokensIntoSlice = 0;
        needResched = false;
    }

    // Hopeless arrivals first: shedding frees nothing on the GPU but
    // shortens the queue every admission prediction includes.
    for (auto &[s, reason] : d.shed)
        shedSeq(s, reason, now);

    bool didTransfers = false;
    for (Sequence *s : d.swapOut) {
        swapOutSeq(s, transfersDone);
        didTransfers = true;
    }
    for (Sequence *s : d.swapIn)
        didTransfers |= swapInSeq(s, transfersDone);
    for (Sequence *s : d.admit)
        didTransfers |= admitSeq(s, transfersDone);

    // Pick this iteration's work: prefill first, then decode.
    prefillBatch.clear();
    for (Sequence *s : running) {
        if (!s->prefilled)
            prefillBatch.push_back(s);
    }

    Tick completion = transfersDone;
    std::uint64_t produced = 0;
    if (!prefillBatch.empty()) {
        // Recompute-preempted sequences re-prefill their whole
        // context (prompt + generated); for fresh ones kvTokens()
        // is just the prompt. With chunked prefill, at most
        // maxPrefillTokensPerIter tokens are processed and long
        // prompts continue next iteration.
        std::uint64_t budget =
            cfg.maxPrefillTokensPerIter == 0
                ? ~std::uint64_t(0)
                : cfg.maxPrefillTokensPerIter;
        prefillWork.clear();
        std::uint64_t total = 0;
        for (Sequence *s : prefillBatch) {
            if (budget == 0)
                break;
            std::uint64_t remaining =
                s->kvTokens() - s->prefilledTokens;
            std::uint64_t chunk = std::min(remaining, budget);
            prefillWork.emplace_back(s, chunk);
            total += chunk;
            budget -= chunk;
        }
        Tick t = perf.prefillTime(total);
        completion = server.gpu(myGpu).submitComputeAfter(
            transfersDone, t);
        for (auto &[s, chunk] : prefillWork) {
            s->prefilledTokens += chunk;
            if (s->prefilledTokens < s->kvTokens())
                continue; // more chunks next iteration
            s->prefilled = true;
            // Publish the freshly computed context so concurrent
            // arrivals with the same prefix share it immediately.
            if (prefix)
                prefix->publish(s);
            if (s->generated == 0) {
                // Prefill emits the first output token.
                s->generated = 1;
                s->metrics.firstToken = completion;
                ++produced;
                if (s->done())
                    finishSeq(s, completion);
            }
        }
    } else if (!running.empty()) {
        // Decode one token for every resident, prefilled sequence.
        // Grow each sequence's KV by one token, preempting the most-
        // served sequences if the pool runs dry; swapOutSeq mutates
        // `running`, so walk a snapshot.
        decodeBatch.assign(running.begin(), running.end());
        for (Sequence *s : decodeBatch) {
            if (s->state != Sequence::State::Running)
                continue;
            if (prefix && prefix->leadLost(s)) {
                // The home GPU died under the borrowed lead: release
                // the (already broken) lease and re-prefill locally.
                swapOutSeq(s, transfersDone);
                didTransfers = true;
                continue;
            }
            std::size_t need =
                kv->blocksForTokens(s->kvTokens() + 1) - s->lead.blocks;
            while (s->blocks.size() < need) {
                if (auto block = kv->allocateBlock()) {
                    s->blocks.push_back(*block);
                    continue;
                }
                // OOM: evict the running sequence with the most
                // generated tokens (it is closest to done and cheapest
                // to stall under CFS; under FCFS it is the newest).
                Sequence *victim = nullptr;
                for (Sequence *r : running) {
                    if (r == s)
                        continue;
                    if (!victim || r->generated > victim->generated)
                        victim = r;
                }
                if (!victim)
                    victim = s;
                swapOutSeq(victim, transfersDone);
                didTransfers = true;
                needResched = true;
                if (victim == s)
                    break;
            }
        }
        decodeBatch.assign(running.begin(), running.end());
        std::uint64_t residentKv = 0;
        for (Sequence *s : decodeBatch)
            residentKv += kv->kvBytes(s->kvTokens());
        if (!decodeBatch.empty()) {
            Tick t = perf.decodeStepTime(decodeBatch.size(), residentKv);
            // Borrowed leads are attended out of their home GPUs'
            // HBM: charge the peer-link read on top of the compute.
            if (prefix)
                t += prefix->leadReadTime(decodeBatch);
            completion = server.gpu(myGpu).submitComputeAfter(
                transfersDone, t);
            if (iterationCb) {
                std::vector<std::uint64_t> ids;
                ids.reserve(decodeBatch.size());
                for (Sequence *s : decodeBatch)
                    ids.push_back(s->request.id);
                iterationCb(completion, ids);
            }
            // finishSeq mutates `running`; iterate over the copy. Every
            // first token came from its sequence's prefill iteration.
            for (Sequence *s : decodeBatch) {
                ++s->generated;
                ++produced;
                if (s->done())
                    finishSeq(s, completion);
            }
            ++tokensIntoSlice;
        }
    }

    if (produced > 0) {
        tokensTotal += produced;
        tokens.record(completion, static_cast<double>(produced));
    }
    recordFreeMemory();
    ++iterCount;

    bool have_work = !running.empty() || !waiting.empty() ||
                     !swapped.empty();
    bool progressed = produced > 0 || didTransfers || !d.shed.empty();
    // Engines with AQUA duties keep a housekeeping heartbeat even when
    // idle: producers must keep informing (to donate/settle reclaims)
    // and consumers must answer /respond while they hold remote
    // tensors. NOTE: such engines never drain the event queue — drive
    // simulations with runUntil(), not run().
    bool aqua_duties =
        aquaLib != nullptr ||
        (aquaBackend && (lora || !swapped.empty()));
    if (have_work && progressed) {
        scheduleStep(std::max(completion, transfersDone));
    } else if (have_work || aqua_duties) {
        // Stalled (e.g. reclaim in progress) or idle with
        // housekeeping duties: poll at the idle cadence.
        scheduleStep(now + idleTickPeriod);
    }
    // Otherwise: fully idle; the next submit() wakes the engine.
}

} // namespace aqua::serve
