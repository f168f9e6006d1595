/**
 * @file
 * Sequence state tracked by LLM serving engines.
 */

#ifndef AQUA_SERVE_SEQUENCE_HH
#define AQUA_SERVE_SEQUENCE_HH

#include <cstdint>
#include <vector>

#include "hw/gpu.hh"
#include "mem/block_allocator.hh"
#include "model/kv_precision.hh"
#include "serve/offload_backend.hh"
#include "serve/prefix_index.hh"
#include "workload/request.hh"

namespace aqua::serve {

class TransferPlan;

/**
 * The KV stream a waiting sequence is fed by, a parked-session resume
 * or a federation fetch: the plan carrying it (cleared when the stream
 * lands or winds down), its id there, and its origin, which outlives
 * the stream for hit accounting (a fetch counts as a prefix hit).
 */
struct KvStream
{
    enum class Origin : std::uint8_t { Resume, Federation };
    TransferPlan *plan = nullptr;
    std::uint64_t id = 0;
    Origin origin = Origin::Resume;

    /** Admission waits while a stream is in flight. */
    bool pending() const { return plan != nullptr; }
};

/**
 * Where a swapped sequence's KV lives below HBM. Only SwapStore reads
 * or writes it.
 */
struct SwapState
{
    /** Backing store handle of the private tail while swapped. */
    OffloadBackend::Handle handle;

    /** Backend holding handle (null = the engine's primary backend).
     *  Set when brownout's offload circuit breaker diverted the swap
     *  to the fallback DRAM backend, or when the tier's settle pass
     *  demoted the tail to the SSD. */
    OffloadBackend *backend = nullptr;

    /** Shared-group key the last swap-out deduplicated under
     *  (0 = swap carried no shared prefix; zero when caching is off). */
    std::uint64_t groupKey = 0;

    /** Leading full blocks covered by groupKey at swap-out. */
    std::uint32_t sharedBlocks = 0;

    /** Precision the private tail was quantized to on its way out
     *  (quantize-before-evict). Serving precision = no demotion;
     *  narrower payloads pay a dequant pass on swap-in. */
    model::KvPrecision precision = model::KvPrecision::Fp16;

    /** Per-block content signatures captured at swap-out, block
     *  order; checked for byte identity on swap-in. */
    std::vector<std::uint64_t> sigs;
};

/**
 * A leading prefix a sequence serves directly from a home GPU's
 * resident copy over NVLink (cluster prefix registry): those blocks
 * never appear in Sequence::blocks, and a registry lease (pin) keeps
 * them resident on the home until released. Only PrefixCache writes
 * it.
 */
struct BorrowedLead
{
    /** Leading full blocks served remotely (0 = none borrowed). */
    std::uint32_t blocks = 0;

    /** Tokens covered by the lead. */
    std::uint64_t tokens = 0;

    /** Home GPU serving the lead. */
    hw::GpuId home = hw::hostDramId;

    /** Registry lease id held on the home chain (0 = none). */
    std::uint64_t pin = 0;
};

/**
 * One in-flight request plus its KV-cache residency state.
 */
struct Sequence
{
    enum class State
    {
        /** Arrived, not yet scheduled onto the GPU. */
        Waiting,
        /** Resident; participates in iterations. */
        Running,
        /** Preempted; KV lives in the offload backend. */
        Swapped,
        /** Done; metrics are final. */
        Finished,
    };

    workload::Request request;
    State state = State::Waiting;

    /** The request's token stream at the engine's block size (empty
     *  unless prefix caching is on); its memo is released once the
     *  sequence finishes. */
    TokenChain chain;

    /** Whether the prompt's KV has been computed. */
    bool prefilled = false;

    /** Prompt tokens already prefilled (chunked prefill progress). */
    std::uint32_t prefilledTokens = 0;

    /** Tokens generated so far (the CFS vruntime, §5). */
    std::uint32_t generated = 0;

    /** Resident KV blocks (empty while swapped/waiting). */
    std::vector<aqua::mem::BlockId> blocks;

    /** Where the KV lives while swapped (SwapStore's alone). */
    SwapState swap;

    /** Whether the sequence holds a pin on its LoRA adapter. */
    bool adapterHeld = false;

    //
    // Streamed-in KV (zero without an SsdTier or federation). A
    // parked-session resume or a cross-server federation fetch
    // streams context KV while the sequence waits; the tokens it
    // delivered count as pre-prefilled at the next admission.
    //

    /** The stream feeding the sequence; shedding cancels it. */
    KvStream stream;

    /** Context tokens the completed stream delivered. */
    std::uint32_t streamedTokens = 0;

    /** Leading prefix served in place from a peer GPU (PrefixCache's
     *  alone; zero unless borrowed). */
    BorrowedLead lead;

    workload::RequestMetrics metrics;

    /** Tokens whose KV the sequence holds (prompt + generated). */
    std::uint64_t
    kvTokens() const
    {
        return std::uint64_t(request.promptTokens) + generated;
    }

    /** Whether generation is complete. */
    bool
    done() const
    {
        return generated >= request.maxNewTokens;
    }
};

} // namespace aqua::serve

#endif // AQUA_SERVE_SEQUENCE_HH
