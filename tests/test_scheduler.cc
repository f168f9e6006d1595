/**
 * @file
 * Tests for the scheduling policies: vLLM's FCFS admission gating
 * and the paper's completely fair scheduler (§5), including a
 * differential check of CfsPolicy against the stable-sort reference
 * it replaced and an allocation guard on its steady state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "model/model_spec.hh"
#include "overload/admission.hh"
#include "serve/kv_cache.hh"
#include "serve/scheduler.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "tests/alloc_counter.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
        : gpu(sim, 0, hw::a100_80g()),
          kv(gpu, model::codellama34b(), std::uint64_t(1) << 30, 16)
    {
        input.kv = &kv;
        input.maxBatch = 8;
        input.sliceTokens = 5;
        input.slackTokens = 32;
    }

    Sequence *
    makeSeq(std::uint32_t prompt, std::uint32_t generated,
            Sequence::State state, Tick arrival = 0)
    {
        auto seq = std::make_unique<Sequence>();
        seq->request.id = seqs.size();
        seq->request.promptTokens = prompt;
        seq->request.maxNewTokens = 100;
        seq->request.arrival = arrival;
        seq->generated = generated;
        seq->state = state;
        seq->prefilled = generated > 0;
        seqs.push_back(std::move(seq));
        Sequence *raw = seqs.back().get();
        switch (state) {
          case Sequence::State::Waiting:
            waiting.push_back(raw);
            break;
          case Sequence::State::Running:
            running.push_back(raw);
            break;
          case Sequence::State::Swapped:
            swapped.push_back(raw);
            break;
          default:
            break;
        }
        // The input views the queues; a push may have moved them.
        input.waiting = waiting;
        input.running = running;
        input.swapped = swapped;
        return raw;
    }

    Simulation sim;
    hw::Gpu gpu;
    KvCache kv;
    std::vector<Sequence *> waiting;
    std::vector<Sequence *> running;
    std::vector<Sequence *> swapped;
    SchedulerInput input;
    std::vector<std::unique_ptr<Sequence>> seqs;
};

} // anonymous namespace

TEST_F(SchedulerTest, FcfsAdmitsWhileMemoryLasts)
{
    // Pool: 1 GiB / (16 * 192 KiB) = ~341 blocks.
    for (int i = 0; i < 4; ++i)
        makeSeq(800, 0, Sequence::State::Waiting);
    FcfsPolicy fcfs;
    SchedulerDecision d = fcfs.schedule(input);
    // Each needs (800+32)/16 = 52 blocks; all four fit.
    EXPECT_EQ(d.admit.size(), 4u);
    EXPECT_TRUE(d.swapOut.empty());
}

TEST_F(SchedulerTest, FcfsQueuesWhenMemoryFull)
{
    // 341 blocks total; each seq needs 52; only 6 fit.
    for (int i = 0; i < 10; ++i)
        makeSeq(800, 0, Sequence::State::Waiting);
    FcfsPolicy fcfs;
    SchedulerDecision d = fcfs.schedule(input);
    EXPECT_EQ(d.admit.size(), 6u);
    // FIFO: the admitted ones are the earliest.
    for (std::size_t i = 0; i < d.admit.size(); ++i)
        EXPECT_EQ(d.admit[i]->request.id, i);
}

TEST_F(SchedulerTest, FcfsHeadOfLineBlocks)
{
    // A huge head request blocks later small ones (vLLM FIFO).
    makeSeq(16 * 341, 0, Sequence::State::Waiting);
    makeSeq(100, 0, Sequence::State::Waiting);
    FcfsPolicy fcfs;
    SchedulerDecision d = fcfs.schedule(input);
    EXPECT_TRUE(d.admit.empty());
}

TEST_F(SchedulerTest, FcfsResumesSwappedBeforeAdmitting)
{
    makeSeq(100, 10, Sequence::State::Swapped);
    makeSeq(100, 0, Sequence::State::Waiting);
    FcfsPolicy fcfs;
    SchedulerDecision d = fcfs.schedule(input);
    ASSERT_EQ(d.swapIn.size(), 1u);
    EXPECT_EQ(d.swapIn[0]->request.id, 0u);
    EXPECT_EQ(d.admit.size(), 1u);
}

TEST_F(SchedulerTest, FcfsRespectsMaxBatch)
{
    for (int i = 0; i < 12; ++i)
        makeSeq(50, 0, Sequence::State::Waiting);
    FcfsPolicy fcfs;
    SchedulerDecision d = fcfs.schedule(input);
    EXPECT_EQ(d.admit.size(), 8u); // maxBatch
}

TEST_F(SchedulerTest, CfsSelectsLeastServed)
{
    Sequence *hot = makeSeq(100, 90, Sequence::State::Running);
    Sequence *cold = makeSeq(100, 2, Sequence::State::Swapped);
    Sequence *fresh = makeSeq(100, 0, Sequence::State::Waiting);
    input.maxBatch = 2;
    CfsPolicy cfs;
    SchedulerDecision d = cfs.schedule(input);
    // The two least-served run; the hot one pages out.
    ASSERT_EQ(d.swapOut.size(), 1u);
    EXPECT_EQ(d.swapOut[0], hot);
    ASSERT_EQ(d.swapIn.size(), 1u);
    EXPECT_EQ(d.swapIn[0], cold);
    ASSERT_EQ(d.admit.size(), 1u);
    EXPECT_EQ(d.admit[0], fresh);
}

TEST_F(SchedulerTest, CfsKeepsRunningSetWhenAlreadyFair)
{
    makeSeq(100, 5, Sequence::State::Running);
    makeSeq(100, 5, Sequence::State::Running);
    CfsPolicy cfs;
    SchedulerDecision d = cfs.schedule(input);
    EXPECT_TRUE(d.empty());
}

TEST_F(SchedulerTest, CfsTieBreaksByArrival)
{
    makeSeq(100, 0, Sequence::State::Waiting, secToTicks(2.0));
    Sequence *early =
        makeSeq(100, 0, Sequence::State::Waiting, secToTicks(1.0));
    input.maxBatch = 1;
    CfsPolicy cfs;
    SchedulerDecision d = cfs.schedule(input);
    ASSERT_EQ(d.admit.size(), 1u);
    EXPECT_EQ(d.admit[0], early);
}

TEST_F(SchedulerTest, CfsRespectsMemoryBudget)
{
    // 341 blocks; each needs (3000+5)/16 = 188 blocks; only one of
    // the big sequences fits, but a small one still squeezes in
    // (fairness over packing skips, then continues).
    makeSeq(3000, 1, Sequence::State::Running);
    makeSeq(3000, 2, Sequence::State::Swapped);
    Sequence *small = makeSeq(100, 3, Sequence::State::Swapped);
    CfsPolicy cfs;
    SchedulerDecision d = cfs.schedule(input);
    EXPECT_TRUE(d.swapOut.empty()); // the running one stays
    ASSERT_EQ(d.swapIn.size(), 1u);
    EXPECT_EQ(d.swapIn[0], small);
}

TEST_F(SchedulerTest, CfsAdmitsEverythingThatFits)
{
    for (int i = 0; i < 5; ++i)
        makeSeq(50, 0, Sequence::State::Waiting);
    CfsPolicy cfs;
    SchedulerDecision d = cfs.schedule(input);
    EXPECT_EQ(d.admit.size(), 5u);
}

TEST(SchedulerPolicy, Names)
{
    EXPECT_EQ(FcfsPolicy().name(), "fcfs");
    EXPECT_FALSE(FcfsPolicy().isFair());
    EXPECT_EQ(CfsPolicy().name(), "cfs");
    EXPECT_TRUE(CfsPolicy().isFair());
}

namespace {

/**
 * CfsPolicy::schedule as it was before it sorted position-keyed POD
 * records into reused buffers: a stable sort of sequence pointers
 * and a linear membership scan per running sequence. The reference
 * for the differential test below. Prefix caching is off in every
 * input it sees, so a sequence's need is its whole KV.
 */
SchedulerDecision
referenceCfsSchedule(const SchedulerInput &in)
{
    SchedulerDecision d;
    std::vector<Sequence *> viable;
    std::uint64_t aheadPrefill = 0;
    for (Sequence *s : in.waiting) {
        if (!in.admission) {
            viable.push_back(s);
            continue;
        }
        overload::AdmissionQuery q;
        q.now = in.now;
        q.requestId = s->request.id;
        q.deadline = s->request.deadline;
        q.bestEffort = s->request.bestEffort;
        q.promptTokens = static_cast<std::uint32_t>(
            s->kvTokens() - s->prefilledTokens);
        q.remainingNewTokens =
            s->request.maxNewTokens > s->generated
                ? s->request.maxNewTokens - s->generated
                : 0;
        q.queuedPrefillTokensAhead = aheadPrefill;
        q.runningCount = in.running.size() + in.swapped.size();
        q.maxBatch = in.maxBatch;
        overload::ShedReason verdict =
            in.admission->assess(q, in.brownoutLevel);
        if (verdict != overload::ShedReason::None) {
            d.shed.emplace_back(s, verdict);
            continue;
        }
        aheadPrefill += q.promptTokens;
        viable.push_back(s);
    }

    std::vector<Sequence *> candidates;
    for (Sequence *s : in.running)
        candidates.push_back(s);
    for (Sequence *s : in.swapped)
        candidates.push_back(s);
    for (Sequence *s : viable)
        candidates.push_back(s);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Sequence *a, const Sequence *b) {
                         if (a->generated != b->generated)
                             return a->generated < b->generated;
                         return a->request.arrival < b->request.arrival;
                     });

    std::size_t budget = in.kv->totalBlocks();
    std::vector<Sequence *> selected;
    for (Sequence *s : candidates) {
        if (selected.size() >= in.maxBatch)
            break;
        std::size_t need =
            in.kv->blocksForTokens(s->kvTokens() + in.sliceTokens);
        if (need > budget)
            continue;
        budget -= need;
        selected.push_back(s);
    }

    auto contains = [&](const Sequence *s) {
        return std::find(selected.begin(), selected.end(), s) !=
               selected.end();
    };
    for (Sequence *s : in.running) {
        if (!contains(s))
            d.swapOut.push_back(s);
    }
    for (Sequence *s : selected) {
        if (s->state == Sequence::State::Swapped)
            d.swapIn.push_back(s);
        else if (s->state == Sequence::State::Waiting)
            d.admit.push_back(s);
    }
    return d;
}

/** One random live set: owned sequences and the queues over them. */
struct LiveSet
{
    std::vector<std::unique_ptr<Sequence>> seqs;
    std::vector<Sequence *> waiting;
    std::vector<Sequence *> running;
    std::vector<Sequence *> swapped;

    /**
     * Draw a live set whose vruntimes and arrivals come from tiny
     * ranges, so (generated, arrival) ties across the three queues
     * are the common case.
     */
    void
    draw(Random &rng, Tick now)
    {
        seqs.clear();
        waiting.clear();
        running.clear();
        swapped.clear();
        auto add = [&](Sequence::State state,
                       std::vector<Sequence *> &queue) {
            auto seq = std::make_unique<Sequence>();
            seq->request.id = seqs.size();
            seq->request.promptTokens =
                static_cast<std::uint32_t>(rng.uniformInt(1, 3000));
            seq->request.maxNewTokens =
                static_cast<std::uint32_t>(rng.uniformInt(1, 400));
            seq->request.arrival = secToTicks(
                static_cast<double>(rng.uniformInt(0, 2)));
            seq->generated =
                static_cast<std::uint32_t>(rng.uniformInt(0, 3));
            if (rng.uniform() < 0.3) {
                seq->request.deadline =
                    now + secToTicks(rng.uniform(0.0, 60.0));
            }
            seq->request.bestEffort = rng.uniform() < 0.2;
            seq->state = state;
            seq->prefilled = state != Sequence::State::Waiting;
            seq->prefilledTokens =
                seq->prefilled ? seq->kvTokens() : 0;
            queue.push_back(seq.get());
            seqs.push_back(std::move(seq));
        };
        auto count = [&](std::int64_t hi) {
            return static_cast<int>(rng.uniformInt(0, hi));
        };
        for (int i = count(40); i > 0; --i)
            add(Sequence::State::Running, running);
        for (int i = count(12); i > 0; --i)
            add(Sequence::State::Swapped, swapped);
        for (int i = count(12); i > 0; --i)
            add(Sequence::State::Waiting, waiting);
    }
};

void
expectSameDecision(const SchedulerDecision &got,
                   const SchedulerDecision &want, int trial)
{
    EXPECT_EQ(got.admit, want.admit) << "trial " << trial;
    EXPECT_EQ(got.swapIn, want.swapIn) << "trial " << trial;
    EXPECT_EQ(got.swapOut, want.swapOut) << "trial " << trial;
    EXPECT_EQ(got.shed, want.shed) << "trial " << trial;
}

} // anonymous namespace

TEST(CfsPolicyDifferential, MatchesStableSortReference)
{
    Simulation sim;
    hw::Gpu gpu(sim, 0, hw::a100_80g());
    // About 85, 341 and 1,365 blocks of 16 tokens.
    std::vector<std::unique_ptr<KvCache>> pools;
    for (std::uint64_t mib : {256, 1024, 4096}) {
        pools.push_back(std::make_unique<KvCache>(
            gpu, model::codellama34b(), mib << 20, 16));
    }
    overload::ServiceRates rates;
    rates.prefillPerToken = secToTicks(0.0004);
    rates.decodePerToken = secToTicks(0.03);
    overload::AdmissionController admission(rates);

    Random rng(20);
    CfsPolicy cfs; // one object: buffers carry over between calls
    LiveSet live;
    std::size_t nonEmpty = 0;
    std::size_t sheds = 0;
    std::size_t skips = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        Tick now = secToTicks(10.0);
        live.draw(rng, now);
        SchedulerInput in;
        in.waiting = live.waiting;
        in.running = live.running;
        in.swapped = live.swapped;
        in.kv = pools[rng.uniformInt(0, 2)].get();
        in.maxBatch = static_cast<std::uint32_t>(rng.uniformInt(0, 48));
        in.sliceTokens = static_cast<std::uint32_t>(rng.uniformInt(1, 8));
        in.now = now;
        if (trial % 2 == 1) {
            in.admission = &admission;
            in.brownoutLevel = static_cast<overload::BrownoutLevel>(
                rng.uniformInt(0, 4));
        }
        SchedulerDecision want = referenceCfsSchedule(in);
        SchedulerDecision got = cfs.schedule(in);
        expectSameDecision(got, want, trial);
        nonEmpty += !want.empty();
        sheds += want.shed.size();
        skips += want.swapOut.size();
    }
    // The draw exercises every branch, not just quiet live sets.
    EXPECT_GT(nonEmpty, 2000u);
    EXPECT_GT(sheds, 1000u);
    EXPECT_GT(skips, 1000u);
}

TEST_F(SchedulerTest, CfsSteadyStateAllocatesNothing)
{
    // 40 running sequences that all fit: a fair slice changes nothing.
    for (int i = 0; i < 40; ++i)
        makeSeq(100, 5, Sequence::State::Running, secToTicks(i % 3));
    input.maxBatch = 40;
    CfsPolicy cfs;
    ASSERT_TRUE(cfs.schedule(input).empty()); // sizes the buffers
    std::size_t before = test::allocCount();
    SchedulerDecision d = cfs.schedule(input);
    std::size_t allocs = test::allocCount() - before;
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(allocs, 0u);
}
