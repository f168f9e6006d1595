/**
 * @file
 * SwapStore: everything about a sequence's KV while it is out of HBM.
 */

#ifndef AQUA_SERVE_SWAP_STORE_HH
#define AQUA_SERVE_SWAP_STORE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "model/perf_model.hh"
#include "serve/kv_cache.hh"
#include "serve/kv_integrity.hh"
#include "serve/sequence.hh"
#include "serve/ssd_tier.hh"

namespace aqua::serve {

struct PrefixCacheEngineStats;

/** Swap-path counters, documented at VllmEngine's count accessors. */
struct SwapStoreStats
{
    std::uint64_t writeBytes = 0, readBytes = 0, fallbackSwaps = 0;
    std::uint64_t parks = 0, streamResumes = 0, recomputeResumes = 0;
    std::uint64_t tierDemotions = 0;
};

/**
 * Where a serving engine's offloaded KV lives and how it comes back:
 * the CFS context switch (§5) on the primary offload backend, the
 * brownout fallback backend, shared-prefix group copies,
 * cold-precision tails and, with an SsdTier, DRAM→SSD demotion and
 * cold-session park/resume. The engine decides when to swap and hands
 * in overload control's verdicts per call; the store owns every
 * handle and each sequence's SwapState.
 */
class SwapStore
{
  public:
    /** A payload's bytes at the serving precision and as stored (equal
     *  unless quantized; zero when nothing was stored). */
    struct Payload
    {
        std::uint64_t servingBytes = 0;
        std::uint64_t storedBytes = 0;
    };

    /** How a swap-in ended. NoRoom: the pool is full and nothing
     *  moved. Rotted: the tail rotted on the SSD, so the KV is dropped
     *  (the read still happened) and the sequence must re-prefill. */
    enum class Restore { Done, NoRoom, Rotted };

    /** Group copies live on @p primary. Every reference is non-owning
     *  and must outlive the store. */
    SwapStore(hw::Server &server, const model::PerfModel &perf,
              model::KvPrecision serving, KvCache &kv,
              OffloadBackend &primary, bool prefixCache,
              PrefixCacheEngineStats &prefixStats,
              KvIntegrity &integrity);
    SwapStore(const SwapStore &) = delete;
    SwapStore &operator=(const SwapStore &) = delete;
    /** Frees the group copies still on the primary backend. */
    ~SwapStore();

    void setFallback(OffloadBackend *b) { fallback = b; }
    void setTier(SsdTier *t) { tier = t; }
    bool hasTier() const { return tier != nullptr; }
    const SwapStoreStats &stats() const { return counters; }

    /**
     * Page a running sequence's KV out, after the engine published it
     * and before it frees the blocks: the shared lead to its group
     * copy, the private tail quantized to @p cold onto the primary
     * backend or, when @p divert (the circuit breaker is open), the
     * fallback. A sequence with a borrowed lead never swaps (the
     * engine recomputes it). Transfers extend @p transfersDone.
     * @return The private tail.
     */
    Payload swapOut(Sequence *s, bool divert, model::KvPrecision cold,
                    aqua::sim::Tick &transfersDone);

    /** Page a swapped sequence's KV back into fresh blocks. */
    Restore swapIn(Sequence *s, aqua::sim::Tick &transfersDone);

    /** Free a swapped sequence's private tail (engine teardown). */
    void discard(Sequence *s);

    /** Park a finished cold session's KV on the tier at @p cold.
     *  @return The parked copy (zero without a tier). */
    Payload park(const Sequence *s, model::KvPrecision cold,
                 aqua::sim::Tick when);

    /** Stream a follow-up turn's parked session KV back when that
     *  beats re-prefilling: @p s then waits on its stream handle, and
     *  @p landed runs when the stream ends (unless @p s was shed
     *  meanwhile, which cancels it through the handle). */
    void beginResume(Sequence *s, std::function<void()> landed);

    /** Demotion settle pass over @p swapped: move aged tails from DRAM
     *  to the SSD (@p pressure: the ForceDramOffload rung is on). */
    void settle(aqua::sim::Tick now, bool pressure,
                const std::vector<Sequence *> &swapped);

  private:
    /** One backend copy of a shared prefix, reused by all borrowers;
     *  refs counts the swapped borrowers pointing at it. */
    struct SharedGroup
    {
        OffloadBackend::Handle handle;
        std::uint32_t refs = 0;
    };

    /** Leading run of s->blocks shared with the index or peers. */
    std::size_t sharedLeadBlocks(const Sequence *s) const;

    /** Drop a swapped borrower's reference on its shared group. */
    void releaseGroup(Sequence *s);

    /** Backend holding @p s's private tail. */
    OffloadBackend &
    holder(const Sequence *s)
    {
        return s->swap.backend ? *s->swap.backend : primary;
    }

    hw::Server &server;
    const model::PerfModel &perf;
    model::KvPrecision serving;
    KvCache &kv;
    OffloadBackend &primary;
    bool prefixCache;
    PrefixCacheEngineStats &prefixStats;
    KvIntegrity &integrity;
    OffloadBackend *fallback = nullptr;
    SsdTier *tier = nullptr;

    /** Shared-prefix offload copies, by chain key. */
    std::map<std::uint64_t, SharedGroup> sharedGroups;
    SwapStoreStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_SWAP_STORE_HH
