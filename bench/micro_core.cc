/**
 * @file
 * Micro-benchmarks (google-benchmark) of the simulation substrate:
 * event queue, allocators, the link model, the staging math, the
 * prefix index's victim order, one sequence's prefix publish, and one
 * CFS scheduling decision.
 * These guard against performance regressions in the hot paths that
 * every figure harness exercises millions of times.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "aqua/staging.hh"
#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "hw/link.hh"
#include "mem/block_allocator.hh"
#include "mem/region_allocator.hh"
#include "model/model_spec.hh"
#include "serve/kv_cache.hh"
#include "serve/prefix_index.hh"
#include "serve/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace aqua;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < batch; ++i) {
            q.schedule(static_cast<sim::Tick>((i * 7919) % batch),
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

void
BM_EventQueueScheduleFireHot(benchmark::State &state)
{
    // Tight schedule/fire ping-pong over a warm, pre-reserved queue:
    // isolates the per-event push_heap/pop_heap cost (and whether the
    // callback is moved or copied on pop) from allocation noise.
    const std::size_t depth = 64;
    sim::EventQueue q;
    q.reserve(depth + 1);
    std::uint64_t sink = 0;
    sim::Tick when = 0;
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(++when, [&sink] { ++sink; });
    for (auto _ : state) {
        q.schedule(++when, [&sink] { ++sink; });
        q.step();
    }
    q.run();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleFireHot);

void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    // Half the scheduled events are cancelled before firing: measures
    // the lazy-deletion sweep in skipCancelled().
    sim::EventQueue q;
    q.reserve(2048);
    std::uint64_t sink = 0;
    sim::Tick when = 0;
    for (auto _ : state) {
        sim::EventId keep = q.schedule(++when, [&sink] { ++sink; });
        sim::EventId drop = q.schedule(++when, [&sink] { ++sink; });
        benchmark::DoNotOptimize(keep);
        q.cancel(drop);
        q.step();
    }
    q.run();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelChurn);

void
BM_RegionAllocatorChurn(benchmark::State &state)
{
    mem::RegionAllocator alloc(std::uint64_t(80) << 30);
    sim::Random rng(7);
    std::vector<mem::Region> live;
    for (auto _ : state) {
        if (live.size() < 256 && rng.bernoulli(0.6)) {
            auto r = alloc.allocate(
                static_cast<std::uint64_t>(
                    rng.uniformInt(4096, 64 << 20)));
            if (r)
                live.push_back(*r);
        } else if (!live.empty()) {
            std::size_t idx = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) - 1));
            alloc.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (const mem::Region &r : live)
        alloc.free(r);
}
BENCHMARK(BM_RegionAllocatorChurn);

void
BM_BlockAllocatorSwapCycle(benchmark::State &state)
{
    mem::BlockAllocator alloc(std::uint64_t(6) << 30, 3 << 20);
    for (auto _ : state) {
        auto blocks = alloc.allocateMany(128);
        alloc.freeMany(*blocks);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_BlockAllocatorSwapCycle);

void
BM_LinkTransferTime(benchmark::State &state)
{
    hw::Link link("nvlink", 250e9, 3 << 20, sim::usToTicks(1.0));
    std::uint64_t bytes = 1;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        bytes = bytes * 2654435761u % (std::uint64_t(1) << 30) + 1;
        sink += link.transferTime(bytes);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_LinkTransferTime);

void
BM_StagingGatherTime(benchmark::State &state)
{
    core::StagingModel staging(hw::a100_80g());
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += staging.gatherTime(384 << 20);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_StagingGatherTime);

void
BM_Pcg32(benchmark::State &state)
{
    sim::Random rng(1);
    double sink = 0.0;
    for (auto _ : state)
        sink += rng.exponential(5.0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_Pcg32);

void
BM_PrefixIndexEvictOne(benchmark::State &state)
{
    // One victim out, one entry in, at a steady index size: the
    // pattern KvCache::allocateBlocks and forkBlock produce.
    const auto entries = static_cast<std::uint64_t>(state.range(0));
    constexpr std::uint32_t kBlockTokens = 16;
    auto stream = [](std::uint64_t salt) -> serve::TokenChain {
        return {[salt](std::uint64_t pos) { return salt ^ (pos + 1); },
                kBlockTokens};
    };
    serve::PrefixIndex index(kBlockTokens);
    sim::Tick now = 0;
    for (std::uint64_t i = 0; i < entries; ++i) {
        index.insert(stream(i), kBlockTokens,
                     {static_cast<mem::BlockId>(i)}, ++now);
    }
    const std::function<bool(mem::BlockId)> any = [](mem::BlockId) {
        return true;
    };
    std::uint64_t salt = entries;
    for (auto _ : state) {
        std::vector<mem::BlockId> victim = index.evictLru(1, any);
        benchmark::DoNotOptimize(victim.data());
        index.insert(stream(salt++), kBlockTokens, victim, ++now);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PrefixIndexEvictOne)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void
BM_PrefixPublishChain(benchmark::State &state)
{
    // A fresh sequence of range(0) tokens publishes its blocks (chain
    // keys plus per-block signatures), then a lookup re-walks it: the
    // per-request hashing a prefix-cached engine pays.
    const auto tokens = static_cast<std::uint64_t>(state.range(0));
    constexpr std::uint32_t kBlockTokens = 16;
    sim::Simulation sim;
    hw::Gpu gpu(sim, 0, hw::a100_80g());
    serve::KvCache kv(gpu, model::codellama34b(), 8 * sim::gib,
                      kBlockTokens);
    auto blocks = kv.allocateBlocks(kv.blocksForTokens(tokens));
    if (!blocks) {
        state.SkipWithError("pool too small");
        return;
    }
    std::uint64_t salt = 0;
    sim::Tick now = 0;
    for (auto _ : state) {
        serve::TokenChain chain(
            [s = salt++](std::uint64_t pos) { return s ^ (pos + 1); },
            kBlockTokens);
        kv.publishPrefix(chain, tokens, *blocks, ++now);
        serve::KvCache::PrefixAcquire acq =
            kv.acquirePrefix(chain, tokens, now);
        benchmark::DoNotOptimize(acq.tokens);
        kv.freeBlocks(acq.blocks);
        kv.dropCache();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(tokens));
}
BENCHMARK(BM_PrefixPublishChain)->Arg(1 << 10)->Arg(1 << 13);

void
BM_PrefixRepublishCached(benchmark::State &state)
{
    // A chain of range(0) tokens that is already cached is published
    // again and looked up again at a later tick: what a multi-turn chat
    // pays per turn for its history. Every entry is refreshed in
    // place; nothing is inserted or evicted.
    const auto tokens = static_cast<std::uint64_t>(state.range(0));
    constexpr std::uint32_t kBlockTokens = 16;
    sim::Simulation sim;
    hw::Gpu gpu(sim, 0, hw::a100_80g());
    serve::KvCache kv(gpu, model::codellama34b(), 8 * sim::gib,
                      kBlockTokens);
    auto blocks = kv.allocateBlocks(kv.blocksForTokens(tokens));
    if (!blocks) {
        state.SkipWithError("pool too small");
        return;
    }
    serve::TokenChain chain(
        [](std::uint64_t pos) { return 0x5eedull ^ (pos + 1); },
        kBlockTokens);
    sim::Tick now = 1;
    kv.publishPrefix(chain, tokens, *blocks, now);
    for (auto _ : state) {
        kv.publishPrefix(chain, tokens, *blocks, ++now);
        serve::KvCache::PrefixAcquire acq =
            kv.acquirePrefix(chain, tokens, now);
        benchmark::DoNotOptimize(acq.tokens);
        kv.freeBlocks(acq.blocks);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(tokens));
}
BENCHMARK(BM_PrefixRepublishCached)->Arg(1 << 10)->Arg(1 << 13);

void
BM_CfsSchedule(benchmark::State &state)
{
    // One CfsPolicy decision over a bursts-sized live set: 36 running,
    // 4 swapped, 1 waiting, a 5-token slice. Between calls the
    // decision is applied, every running sequence decodes one slice,
    // and once the waiting queue drains the most-served sequence
    // finishes and re-enters as a fresh arrival.
    using serve::Sequence;
    sim::Simulation sim;
    hw::Gpu gpu(sim, 0, hw::a100_80g());
    serve::KvCache kv(gpu, model::codellama34b(), 4 * sim::gib, 16);
    sim::Random rng(1);
    std::vector<std::unique_ptr<Sequence>> seqs;
    std::vector<Sequence *> waiting;
    std::vector<Sequence *> running;
    std::vector<Sequence *> swapped;
    auto add = [&](Sequence::State st, std::vector<Sequence *> &queue) {
        auto seq = std::make_unique<Sequence>();
        seq->request.id = seqs.size();
        seq->request.arrival = sim::secToTicks(rng.uniform(0.0, 1.0));
        seq->request.promptTokens =
            static_cast<std::uint32_t>(rng.uniformInt(100, 1000));
        seq->request.maxNewTokens = ~std::uint32_t(0);
        seq->generated =
            st == Sequence::State::Waiting
                ? 0
                : static_cast<std::uint32_t>(rng.uniformInt(1, 50));
        seq->state = st;
        seq->prefilled = st != Sequence::State::Waiting;
        queue.push_back(seq.get());
        seqs.push_back(std::move(seq));
    };
    for (int i = 0; i < 36; ++i)
        add(Sequence::State::Running, running);
    for (int i = 0; i < 4; ++i)
        add(Sequence::State::Swapped, swapped);
    add(Sequence::State::Waiting, waiting);

    auto move = [](Sequence *s, std::vector<Sequence *> &from,
                   std::vector<Sequence *> &to, Sequence::State st) {
        from.erase(std::find(from.begin(), from.end(), s));
        to.push_back(s);
        s->state = st;
    };
    serve::CfsPolicy cfs;
    serve::SchedulerInput in;
    in.kv = &kv;
    in.maxBatch = 36;
    in.sliceTokens = 5;
    sim::Tick now = sim::secToTicks(1.0);
    for (auto _ : state) {
        in.waiting = waiting;
        in.running = running;
        in.swapped = swapped;
        in.now = now;
        serve::SchedulerDecision d = cfs.schedule(in);
        benchmark::DoNotOptimize(d.swapOut.data());
        for (Sequence *s : d.swapOut)
            move(s, running, swapped, Sequence::State::Swapped);
        for (Sequence *s : d.swapIn)
            move(s, swapped, running, Sequence::State::Running);
        for (Sequence *s : d.admit)
            move(s, waiting, running, Sequence::State::Running);
        for (Sequence *s : running)
            s->generated += in.sliceTokens;
        now += sim::secToTicks(0.1);
        if (waiting.empty()) {
            auto most = std::max_element(
                running.begin(), running.end(),
                [](const Sequence *a, const Sequence *b) {
                    return a->generated < b->generated;
                });
            Sequence *done = *most;
            move(done, running, waiting, Sequence::State::Waiting);
            done->generated = 0;
            done->prefilled = false;
            done->request.arrival = now;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CfsSchedule);

} // anonymous namespace

BENCHMARK_MAIN();
