/**
 * @file
 * OffloadBackend conformance suite: one typed fixture runs the shared
 * interface contract against every backend — DRAM, UVM, AQUA and SSD —
 * instead of each backend's test file re-stating its own copy.
 *
 * Contract under test: alloc/free lifecycle (exhaustion returns
 * nullopt, double free dies, capacity is reusable), round-trip timing
 * signature (causal start/complete, `earliest` propagation, bounds
 * enforcement), the respond/staged/name surface, the evacuation
 * default (never, until a reclaim actually runs) and that transport
 * degradation is visible through the backend's transfer times.
 */

#include <gtest/gtest.h>

#include <memory>

#include "exp/testbed.hh"
#include "model/model_spec.hh"
#include "serve/kv_cache.hh"
#include "serve/ssd_backend.hh"
#include "serve/uvm_backend.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::serve;

namespace {

/** Each factory builds its backend on a fresh testbed and knows how
 *  to degrade the transport the backend's transfers ride on. */
struct DramFactory
{
    static OffloadBackend &make(exp::Testbed &tb,
                                std::unique_ptr<OffloadBackend> &)
    {
        return tb.makeDramBackend(0);
    }
    static void degrade(exp::Testbed &tb)
    {
        tb.server().topology().degradeHostLink(0.2);
    }
};

struct UvmFactory
{
    static OffloadBackend &make(exp::Testbed &tb,
                                std::unique_ptr<OffloadBackend> &own)
    {
        own = std::make_unique<UvmBackend>(tb.server(), 0);
        return *own;
    }
    static void degrade(exp::Testbed &tb)
    {
        tb.server().topology().degradeHostLink(0.2);
    }
};

struct AquaFactory
{
    static OffloadBackend &make(exp::Testbed &tb,
                                std::unique_ptr<OffloadBackend> &)
    {
        core::AquaLib &lib = tb.makeAquaLib(0);
        tb.assign(0, 1);
        tb.coordinator().lease(1, std::uint64_t(20) << 30);
        return tb.makeAquaBackend(lib);
    }
    static void degrade(exp::Testbed &tb)
    {
        // Tensors sit on the donor's lease (NVLink) or the DRAM
        // fallback (PCIe); throttle both.
        tb.server().topology().degradePeerLink(0.2);
        tb.server().topology().degradeHostLink(0.2);
    }
};

struct SsdFactory
{
    static OffloadBackend &make(exp::Testbed &tb,
                                std::unique_ptr<OffloadBackend> &)
    {
        return tb.makeSsdBackend(0);
    }
    static void degrade(exp::Testbed &tb)
    {
        tb.server().topology().degradeSsd(0.2);
    }
};

template <typename Factory>
class OffloadConformance : public ::testing::Test
{
  protected:
    exp::Testbed tb{2, hw::TopologyKind::DirectP2P};
    std::unique_ptr<OffloadBackend> owned;
    OffloadBackend *backend = nullptr;

    void SetUp() override { backend = &Factory::make(tb, owned); }
};

using AllBackends =
    ::testing::Types<DramFactory, UvmFactory, AquaFactory, SsdFactory>;
TYPED_TEST_SUITE(OffloadConformance, AllBackends);

} // anonymous namespace

TYPED_TEST(OffloadConformance, AllocFreeLifecycle)
{
    auto handle = this->backend->alloc(64 * mib);
    ASSERT_TRUE(handle);
    EXPECT_TRUE(handle->valid());
    EXPECT_EQ(handle->bytes, 64 * mib);
    this->backend->free(*handle);
    // Freed capacity is allocatable again.
    auto again = this->backend->alloc(64 * mib);
    ASSERT_TRUE(again);
    this->backend->free(*again);
}

TYPED_TEST(OffloadConformance, ExhaustionReturnsNullopt)
{
    // 32 TiB exceeds every store in the testbed (1 TiB DRAM, 20 GiB
    // lease, 4 TiB SSD).
    EXPECT_FALSE(this->backend->alloc(std::uint64_t(32) << 40));
}

TYPED_TEST(OffloadConformance, DoubleFreePanics)
{
    auto handle = this->backend->alloc(1 << 20);
    ASSERT_TRUE(handle);
    this->backend->free(*handle);
    EXPECT_DEATH(this->backend->free(*handle), "unknown");
}

TYPED_TEST(OffloadConformance, AccessBeyondHandlePanics)
{
    auto handle = this->backend->alloc(1 << 20);
    ASSERT_TRUE(handle);
    EXPECT_DEATH(this->backend->write(*handle, 2 << 20, 1), "beyond");
    EXPECT_DEATH(this->backend->read(*handle, 2 << 20, 1), "beyond");
    this->backend->free(*handle);
}

TYPED_TEST(OffloadConformance, RoundTripTimingSignature)
{
    auto handle = this->backend->alloc(64 * mib);
    ASSERT_TRUE(handle);
    hw::TransferTiming w = this->backend->write(*handle, 64 * mib, 16);
    EXPECT_GE(w.complete, w.start);
    EXPECT_GT(w.complete, Tick(0));
    // Read issued after the write lands starts no earlier.
    hw::TransferTiming r =
        this->backend->read(*handle, 64 * mib, 16, w.complete);
    EXPECT_GE(r.start, w.complete);
    EXPECT_GT(r.complete, r.start);
    this->backend->free(*handle);
}

TYPED_TEST(OffloadConformance, EarliestPropagates)
{
    auto handle = this->backend->alloc(1 << 20);
    ASSERT_TRUE(handle);
    hw::TransferTiming t =
        this->backend->write(*handle, 1 << 20, 1, secToTicks(1.0));
    EXPECT_GE(t.start, secToTicks(1.0));
    this->backend->free(*handle);
}

TYPED_TEST(OffloadConformance, RespondStagedNameContract)
{
    EXPECT_FALSE(this->backend->name().empty());
    EXPECT_GE(this->backend->respond(), this->tb.sim().now());
    // No reclaim has run: evacuation must read "never".
    EXPECT_EQ(this->backend->lastEvacuationAt(), Tick(0));
    // staged() is a pure capability flag; calling it must be safe.
    (void)this->backend->staged();
}

TYPED_TEST(OffloadConformance, QuantizedRoundTripMovesScaledBytes)
{
    // Non-fp16 contract: offloading a KV payload at fp8/int4 moves
    // exactly the precision-scaled byte count — no rounding residue
    // (the fp16 count is divisible by 4) — and the logical content
    // signature the byte-identity checks compare is computed over
    // token ids, so it is invariant under precision rescaling.
    const model::ModelSpec spec = model::mistral7b();
    constexpr std::uint64_t tokens = 4096;
    const std::uint64_t fp16Bytes = spec.kvBytes(tokens);
    serve::TokenFn tok = [](std::uint64_t i) { return i * 2654435761u; };
    const std::uint64_t sigBefore =
        serve::TokenChain(tok, 16).sig(0, tokens);

    Tick lastDuration = 0;
    bool first = true;
    for (model::KvPrecision p :
         {model::KvPrecision::Fp16, model::KvPrecision::Fp8,
          model::KvPrecision::Int4}) {
        std::uint64_t scaled = model::scaleKvBytes(fp16Bytes, p);
        EXPECT_EQ(scaled * model::kvPrecisionDivisor(p), fp16Bytes);
        EXPECT_EQ(model::rescaleKvBytes(scaled, p,
                                        model::KvPrecision::Fp16),
                  fp16Bytes);

        auto handle = this->backend->alloc(scaled);
        ASSERT_TRUE(handle);
        EXPECT_EQ(handle->bytes, scaled);
        hw::TransferTiming w = this->backend->write(*handle, scaled, 4);
        EXPECT_GE(w.complete, w.start);
        hw::TransferTiming r =
            this->backend->read(*handle, scaled, 4, w.complete);
        EXPECT_GE(r.start, w.complete);
        // Narrower KV is strictly cheaper to move on the link-based
        // backends. Not on the SSD: with the chunk count fixed, a
        // smaller payload means smaller per-chunk accesses, which land
        // lower on the drive's sequential-vs-random ramp — quantizing
        // can genuinely cost media time there. The repriced offload
        // decisions must see that, so the contract only pins the
        // direction where the ramp keeps it monotone.
        Tick duration = w.complete - w.start;
        if (!first && this->backend->name() != "ssd") {
            EXPECT_LT(duration, lastDuration);
        }
        lastDuration = duration;
        first = false;
        this->backend->free(*handle);

        // The restore hands back the same logical tokens: the
        // signature recomputed after the round trip matches.
        EXPECT_EQ(serve::TokenChain(tok, 16).sig(0, tokens), sigBefore);
    }
}

TYPED_TEST(OffloadConformance, DegradedTransportSlowsTransfers)
{
    auto handle = this->backend->alloc(256 * mib);
    ASSERT_TRUE(handle);
    hw::TransferTiming healthy =
        this->backend->write(*handle, 256 * mib, 1);
    this->backend->free(*handle);

    exp::Testbed degradedTb(2, hw::TopologyKind::DirectP2P);
    std::unique_ptr<OffloadBackend> degradedOwn;
    OffloadBackend &degraded =
        TypeParam::make(degradedTb, degradedOwn);
    TypeParam::degrade(degradedTb);
    auto dh = degraded.alloc(256 * mib);
    ASSERT_TRUE(dh);
    hw::TransferTiming slow = degraded.write(*dh, 256 * mib, 1);
    degraded.free(*dh);

    EXPECT_GT(slow.complete - slow.start,
              healthy.complete - healthy.start);
}
