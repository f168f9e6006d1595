/**
 * @file
 * Tests for the paged KV cache, including the shrink/grow donation
 * path (§B.1's pool defragmentation).
 */

#include <gtest/gtest.h>

#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "model/model_spec.hh"
#include "serve/kv_cache.hh"
#include "sim/simulation.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

struct Fixture
{
    Simulation sim;
    hw::Gpu gpu{sim, 0, hw::a100_80g()};
};

} // anonymous namespace

TEST(KvCache, BlockGeometry)
{
    Fixture f;
    model::ModelSpec m = model::codellama34b();
    KvCache kv(f.gpu, m, 6 * gib, 16);
    EXPECT_EQ(kv.blockBytes(), 16 * m.kvBytesPerToken());
    EXPECT_EQ(kv.tokensPerBlock(), 16u);
    EXPECT_EQ(kv.blocksForTokens(1), 1u);
    EXPECT_EQ(kv.blocksForTokens(16), 1u);
    EXPECT_EQ(kv.blocksForTokens(17), 2u);
    EXPECT_EQ(kv.kvBytes(100), 100 * m.kvBytesPerToken());
}

TEST(KvCache, ReservesHbm)
{
    Fixture f;
    std::uint64_t before = f.gpu.freeHbm();
    {
        KvCache kv(f.gpu, model::codellama34b(), 6 * gib);
        EXPECT_EQ(before - f.gpu.freeHbm(), 6 * gib);
    }
    EXPECT_EQ(f.gpu.freeHbm(), before); // released on destruction
}

TEST(KvCache, AllocateAndFreeBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib);
    std::size_t total = kv.totalBlocks();
    auto blocks = kv.allocateBlocks(10);
    ASSERT_TRUE(blocks);
    EXPECT_EQ(kv.freeBlocks(), total - 10);
    kv.freeBlocks(*blocks);
    EXPECT_EQ(kv.freeBlocks(), total);
}

TEST(KvCache, ShrinkReleasesHbmInBlockMultiples)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 6 * gib);
    std::uint64_t freeBefore = f.gpu.freeHbm();
    std::uint64_t released = kv.shrink(1 * gib);
    EXPECT_GT(released, 0u);
    EXPECT_EQ(released % kv.blockBytes(), 0u);
    EXPECT_LE(released, 1 * gib);
    EXPECT_EQ(f.gpu.freeHbm(), freeBefore + released);
    EXPECT_EQ(kv.poolBytes(), 6 * gib - released);
}

TEST(KvCache, ShrinkBoundedByFreeBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib);
    std::size_t total = kv.totalBlocks();
    auto blocks = kv.allocateBlocks(total - 2);
    ASSERT_TRUE(blocks);
    std::uint64_t released = kv.shrink(10 * gib);
    EXPECT_EQ(released, 2 * kv.blockBytes());
    kv.freeBlocks(*blocks);
}

TEST(KvCache, GrowRestoresDonatedBlocks)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 6 * gib);
    std::size_t blocksBefore = kv.totalBlocks();
    std::uint64_t released = kv.shrink(2 * gib);
    kv.grow(released);
    EXPECT_EQ(kv.totalBlocks(), blocksBefore);
    EXPECT_EQ(kv.poolBytes(), 6 * gib);
}

TEST(KvCache, GrowBeyondDonationPanics)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 6 * gib);
    kv.shrink(1 * gib);
    EXPECT_DEATH(kv.grow(5 * gib), "donated");
}

TEST(KvCache, NonTextModelPanics)
{
    Fixture f;
    EXPECT_DEATH(KvCache(f.gpu, model::stableDiffusion(), 1 * gib),
                 "not a text model");
}

TEST(KvCache, OversizedPoolPanics)
{
    Fixture f;
    EXPECT_DEATH(KvCache(f.gpu, model::codellama34b(), 100 * gib),
                 "reserve");
}

TEST(KvCache, PinnedCacheBlocksAreNotAdmissionHeadroom)
{
    Fixture f;
    KvCache kv(f.gpu, model::codellama34b(), 1 * gib, 16);
    TokenChain tok([](std::uint64_t pos) { return 0x90 ^ (pos + 1); },
                   16);
    std::size_t total = kv.totalBlocks();

    auto owner = kv.allocateBlocks(3);
    ASSERT_TRUE(owner);
    kv.publishPrefix(tok, 48, *owner, 10);
    kv.freeBlocks(*owner); // cache-only: all three count as headroom
    EXPECT_EQ(kv.evictableBlocks(), 3u);
    EXPECT_EQ(kv.availableBlocks(), total);

    // A registry read lease pins the middle block: it must leave the
    // admission headroom immediately.
    mem::BlockId leased = (*owner)[1];
    kv.pinBlock(leased);
    EXPECT_TRUE(kv.blockPinned(leased));
    EXPECT_EQ(kv.pinnedBlocks(), 1u);
    EXPECT_EQ(kv.evictableBlocks(), 2u);
    EXPECT_EQ(kv.availableBlocks(), total - 1);

    // Eviction pressure reclaims the two unpinned blocks only.
    EXPECT_EQ(kv.evictCached(3), 2u);
    EXPECT_TRUE(kv.blockPinned(leased));
    EXPECT_GE(kv.blockRefCount(leased), 1u);
    EXPECT_EQ(kv.evictableBlocks(), 0u);
    EXPECT_EQ(kv.availableBlocks(), total - 1);

    // Pins nest; the lease draining restores the block to headroom.
    kv.pinBlock(leased);
    kv.unpinBlock(leased);
    EXPECT_TRUE(kv.blockPinned(leased));
    kv.unpinBlock(leased);
    EXPECT_FALSE(kv.blockPinned(leased));
    EXPECT_EQ(kv.pinnedBlocks(), 0u);
    EXPECT_EQ(kv.evictableBlocks(), 1u);
    EXPECT_EQ(kv.availableBlocks(), total);
    EXPECT_EQ(kv.evictCached(1), 1u);
}
