#include "serve/swap_store.hh"

#include <algorithm>
#include <utility>

#include "serve/vllm_engine.hh"
#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

constexpr std::uint32_t blockTokens = VllmEngine::blockTokens;

SwapStore::SwapStore(hw::Server &server, const model::PerfModel &perf,
                     model::KvPrecision serving, KvCache &kv,
                     OffloadBackend &primary, bool prefixCache,
                     PrefixCacheEngineStats &prefixStats,
                     KvIntegrity &integrity)
    : server(server), perf(perf), serving(serving), kv(kv),
      primary(primary), prefixCache(prefixCache),
      prefixStats(prefixStats), integrity(integrity)
{
}

SwapStore::~SwapStore()
{
    for (auto &[key, group] : sharedGroups)
        primary.free(group.handle);
}

std::size_t
SwapStore::sharedLeadBlocks(const Sequence *s) const
{
    // Leading run of full blocks some other holder (the index or a
    // peer sequence) also references: exactly the blocks whose
    // contents are recoverable from a shared-group backend copy.
    std::size_t maxFull =
        static_cast<std::size_t>(s->kvTokens() / blockTokens);
    std::size_t lead = 0;
    while (lead < s->blocks.size() && lead < maxFull &&
           kv.blockRefCount(s->blocks[lead]) > 1)
        ++lead;
    return lead;
}

void
SwapStore::releaseGroup(Sequence *s)
{
    SwapState &sw = s->swap;
    if (sw.groupKey != 0) {
        auto it = sharedGroups.find(sw.groupKey);
        if (it != sharedGroups.end() && --it->second.refs == 0) {
            primary.free(it->second.handle);
            sharedGroups.erase(it);
        }
    }
    sw.groupKey = 0;
    sw.sharedBlocks = 0;
    sw.sigs.clear();
}

SwapStore::Payload
SwapStore::swapOut(Sequence *s, bool divert, model::KvPrecision cold,
                   Tick &transfersDone)
{
    // The circuit breaker diverts swaps to the fallback (host DRAM)
    // backend while the primary offload path is under reclaim or link
    // degradation. Shared-group dedup only applies on the primary
    // backend — group copies live there, so fallback swaps are always
    // private.
    OffloadBackend &target = divert && fallback ? *fallback : primary;
    bool usingFallback = &target != &primary;
    SwapState &sw = s->swap;
    std::uint64_t bytes = kv.kvBytes(s->kvTokens());
    std::uint64_t groupBytes = 0;
    std::size_t lead = 0;
    if (prefixCache) {
        // Snapshot per-block signatures for the byte-identity check
        // on swap-in.
        sw.sigs.clear();
        sw.sigs.reserve(s->blocks.size());
        for (aqua::mem::BlockId b : s->blocks)
            sw.sigs.push_back(kv.blockSig(b));
        // Deduplicated offload: a shared prefix is materialized in
        // the backend once per group; later borrowers just take a
        // reference instead of re-staging the same bytes.
        if (!usingFallback)
            lead = sharedLeadBlocks(s);
        if (lead > 0) {
            std::uint64_t key = s->chain.keysAt(lead).key;
            groupBytes = kv.kvBytes(std::uint64_t(lead) * blockTokens);
            auto [it, fresh] = sharedGroups.try_emplace(key);
            if (fresh) {
                auto gh = primary.alloc(groupBytes);
                if (!gh) {
                    // Backend full: fall back to a private swap.
                    sharedGroups.erase(it);
                    lead = 0;
                    groupBytes = 0;
                } else {
                    it->second.handle = *gh;
                    hw::TransferTiming t =
                        primary.write(*gh, groupBytes, lead);
                    transfersDone = std::max(transfersDone, t.complete);
                    counters.writeBytes += groupBytes;
                    ++prefixStats.groupWrites;
                }
            } else {
                prefixStats.dedupSavedBytes += groupBytes;
                ++prefixStats.sharedSwapOuts;
            }
            if (lead > 0) {
                ++it->second.refs;
                sw.groupKey = key;
                sw.sharedBlocks = static_cast<std::uint32_t>(lead);
            }
        }
    }
    std::uint64_t tailBytes = bytes - groupBytes;
    // Quantize-before-evict: under memory pressure the governor
    // demotes the *private* tail below the serving precision before
    // it leaves HBM. Shared-group copies stay at serving precision —
    // other borrowers restore from them without a dequant pass.
    std::uint64_t storedTail = tailBytes;
    Tick quantReady = 0;
    if (cold != serving && tailBytes > 0) {
        storedTail = model::rescaleKvBytes(tailBytes, serving, cold);
        // The quantization kernel runs before the bytes can stage out.
        quantReady = server.simulation().now() +
                     perf.dequantTimeAt(tailBytes, cold);
    }
    sw.precision = cold;
    sw.handle = OffloadBackend::Handle{};
    sw.backend = nullptr;
    if (storedTail > 0) {
        auto handle = target.alloc(storedTail);
        if (!handle && usingFallback) {
            // Fallback full: fail back to the primary path rather
            // than dropping the sequence.
            handle = primary.alloc(storedTail);
            usingFallback = false;
        }
        if (!handle) {
            panic("SwapStore: offload backend exhausted swapping out "
                  "sequence %llu",
                  static_cast<unsigned long long>(s->request.id));
        }
        OffloadBackend &dest = usingFallback ? target : primary;
        hw::TransferTiming t = dest.write(
            *handle, storedTail, s->blocks.size() - lead, quantReady);
        transfersDone = std::max(transfersDone, t.complete);
        counters.writeBytes += storedTail;
        sw.handle = *handle;
        if (usingFallback) {
            sw.backend = &target;
            ++counters.fallbackSwaps;
        }
        // Register the private tail with the tier's demotion policy
        // when it landed in a DRAM-class backend: a long-swapped
        // sequence's KV ages out of DRAM onto the SSD. Shared-group
        // copies are never registered — other borrowers may need them
        // at DRAM speed (they are pinned to DRAM by omission).
        if (tier && holder(s).name() == "dram")
            tier->noteOffloaded(s->request.id,
                                server.simulation().now());
    }
    return {tailBytes, storedTail};
}

SwapStore::Restore
SwapStore::swapIn(Sequence *s, Tick &transfersDone)
{
    SwapState &sw = s->swap;
    std::size_t need = kv.blocksForTokens(s->kvTokens());

    // Re-acquire whatever of the shared prefix is still resident:
    // those blocks need no transfer at all. The cap is a multiple of
    // the block size, so only full blocks can match.
    std::vector<aqua::mem::BlockId> resident;
    if (prefixCache && sw.sharedBlocks > 0) {
        KvCache::PrefixAcquire acq = kv.acquirePrefix(
            s->chain, std::uint64_t(sw.sharedBlocks) * blockTokens,
            server.simulation().now());
        resident = std::move(acq.blocks);
    }

    auto blocks = kv.allocateBlocks(need - resident.size());
    if (!blocks) {
        if (!resident.empty())
            kv.freeBlocks(resident);
        return Restore::NoRoom;
    }

    // Shared blocks evicted since swap-out come from the group's
    // single backend copy; the private tail from the swap handle.
    std::size_t missingShared = sw.sharedBlocks - resident.size();
    if (missingShared > 0) {
        auto it = sharedGroups.find(sw.groupKey);
        if (it == sharedGroups.end()) {
            panic("SwapStore: shared group %llx vanished under "
                  "swapped sequence %llu",
                  static_cast<unsigned long long>(sw.groupKey),
                  static_cast<unsigned long long>(s->request.id));
        }
        std::uint64_t sharedBytes =
            kv.kvBytes(std::uint64_t(missingShared) * blockTokens);
        hw::TransferTiming t =
            primary.read(it->second.handle, sharedBytes, missingShared);
        transfersDone = std::max(transfersDone, t.complete);
        counters.readBytes += sharedBytes;
    }
    prefixStats.residentReuseBytes +=
        kv.kvBytes(std::uint64_t(resident.size()) * blockTokens);
    if (sw.handle.valid()) {
        // The private tail comes back from whichever backend the
        // swap-out targeted (the fallback when the circuit breaker
        // was open, the SSD once the settle pass demoted it).
        OffloadBackend &from = holder(s);
        auto readTail = [&] {
            counters.readBytes += sw.handle.bytes;
            return from.read(sw.handle, sw.handle.bytes,
                             need - sw.sharedBlocks).complete;
        };
        Tick restored = readTail();
        // A demoted tail streamed fewer bytes but must be dequantized
        // back to the serving precision before decode can touch it.
        if (sw.precision != serving) {
            std::uint64_t servingBytes = model::rescaleKvBytes(
                sw.handle.bytes, sw.precision, serving);
            restored += perf.dequantTimeAt(servingBytes, sw.precision);
        }
        transfersDone = std::max(transfersDone, restored);
        // Signature-verify the restored tail before decode touches
        // it. Which fault applies depends on where the bytes lived: a
        // DRAM/peer payload corrupted in flight (payload_corrupt)
        // re-reads cleanly from the intact backend copy, while a tail
        // demoted to the SSD can have rotted at rest (ssd_bitrot) —
        // the stored copy itself is damaged, so re-reading returns
        // the same bad bytes and the sequence must drop its KV and
        // recompute.
        bool onSsd = from.name() == "ssd";
        bool rotted = integrity.check(s->request.id, "swap_in", onSsd, [&] {
            transfersDone = std::max(transfersDone, readTail());
        });
        if (tier)
            tier->forgetOffloaded(s->request.id);
        from.free(sw.handle);
        sw.handle = OffloadBackend::Handle{};
        sw.backend = nullptr;
        sw.precision = serving;
        if (rotted) {
            if (!resident.empty())
                kv.freeBlocks(resident);
            kv.freeBlocks(*blocks);
            releaseGroup(s);
            return Restore::Rotted;
        }
    }

    s->blocks = std::move(resident);
    s->blocks.insert(s->blocks.end(), blocks->begin(), blocks->end());

    // Restored blocks came back through the offload/DRAM path; keep
    // the origin tag honest for the prefix-hit breakdown.
    for (aqua::mem::BlockId b : *blocks)
        kv.setBlockOrigin(b, BlockOrigin::Dram);

    // Byte-identity check: every block must carry the signature it
    // had at swap-out, whether it stayed resident or round-tripped
    // through the backend (restored blocks take their snapshot).
    if (prefixCache && !sw.sigs.empty()) {
        std::size_t residentCount = s->blocks.size() - blocks->size();
        for (std::size_t i = 0;
             i < s->blocks.size() && i < sw.sigs.size(); ++i) {
            if (i < residentCount) {
                if (kv.blockSig(s->blocks[i]) != sw.sigs[i])
                    ++prefixStats.sigMismatches;
            } else {
                kv.setBlockSig(s->blocks[i], sw.sigs[i]);
            }
        }
    }
    releaseGroup(s);
    return Restore::Done;
}

void
SwapStore::discard(Sequence *s)
{
    if (s->swap.handle.valid())
        holder(s).free(s->swap.handle);
}

SwapStore::Payload
SwapStore::park(const Sequence *s, model::KvPrecision cold, Tick when)
{
    if (!tier)
        return {};
    // Parked KV is cold by definition: quantize it to the governor's
    // cold precision on the way down the tiers.
    std::uint64_t servingBytes = kv.kvBytes(s->kvTokens());
    std::uint64_t storedBytes =
        model::rescaleKvBytes(servingBytes, serving, cold);
    if (!tier->park(s->request.userId, storedBytes,
                    static_cast<std::uint32_t>(s->kvTokens()), cold,
                    s->request.idleGapSec, when))
        return {};
    ++counters.parks;
    return {servingBytes, storedBytes};
}

void
SwapStore::beginResume(Sequence *s, std::function<void()> landed)
{
    if (!tier || s->request.turn == 0)
        return;
    std::uint64_t key = s->request.userId;
    const SsdTier::Parked *parked = tier->parked(key);
    if (!parked)
        return;
    // The follow-up's prompt re-sends the conversation history the
    // parked KV covers; cap one short of the prompt so at least one
    // token is always computed.
    std::uint32_t cap =
        s->request.promptTokens > 0 ? s->request.promptTokens - 1 : 0;
    std::uint32_t usable = std::min(parked->tokens, cap);
    if (usable == 0) {
        tier->cancelResume(key);
        return;
    }
    Tick now = server.simulation().now();
    // A quantized parked copy streams fewer bytes but pays a dequant
    // pass on arrival; fold that into the crossover so recompute wins
    // when dequant erodes the streaming advantage.
    Tick streamOverhead = 0;
    if (parked->precision != serving) {
        streamOverhead =
            perf.dequantTimeAt(kv.kvBytes(usable), parked->precision);
    }
    // Stream-vs-recompute crossover: the tier compares the prefetch
    // makespan against what re-prefilling the parked context costs at
    // the roofline rate. Streaming starts immediately so the windows
    // overlap whatever the GPU is already decoding.
    TransferPlan::StreamId stream = tier->beginResume(
        key, now, perf.prefillTime(usable),
        [this, s, usable, landed = std::move(landed)](bool streamed) {
            s->stream.plan = nullptr;
            if (s->state != Sequence::State::Waiting)
                return; // shed while the stream was in flight
            // Signature-verify the streamed KV on arrival. A hit means
            // the *stored* copy rotted on media: re-reading returns
            // the same damaged bytes, so the stream is discarded and
            // this turn re-prefills from the prompt. A stream
            // cancelled mid-way (device degradation/failure) falls
            // back to a full re-prefill too.
            if (streamed &&
                !integrity.check(s->request.id, "ssd_resume", true, {})) {
                s->streamedTokens = usable;
                ++counters.streamResumes;
            } else {
                ++counters.recomputeResumes;
            }
            landed();
        },
        streamOverhead);
    if (stream != 0)
        s->stream = {&tier->plan(), stream, KvStream::Origin::Resume};
    else
        ++counters.recomputeResumes;
}

void
SwapStore::settle(Tick now, bool pressure,
                  const std::vector<Sequence *> &swapped)
{
    for (std::uint64_t key : tier->selectDemotions(now, pressure)) {
        auto it = std::find_if(swapped.begin(), swapped.end(),
                               [key](const Sequence *s) {
                                   return s->request.id == key;
                               });
        Sequence *victim = it != swapped.end() ? *it : nullptr;
        if (!victim || !victim->swap.handle.valid()) {
            // The sequence moved on since registration; drop the
            // stale policy entry.
            tier->forgetOffloaded(key);
            continue;
        }
        SwapState &sw = victim->swap;
        std::uint64_t nChunks =
            std::max<std::uint64_t>(1, sw.handle.bytes / kv.blockBytes());
        auto moved =
            tier->demote(key, holder(victim), sw.handle, nChunks, now);
        if (!moved)
            continue; // store full: the payload stays in DRAM
        sw.handle = *moved;
        sw.backend = &tier->backend();
        ++counters.tierDemotions;
    }
}

} // namespace aqua::serve
