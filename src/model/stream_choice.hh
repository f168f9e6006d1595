/**
 * @file
 * Shared stream-vs-recompute crossover.
 *
 * Two deciders in the stack weigh streaming a stored KV copy against
 * re-prefilling it at the roofline rate: the storage tier's
 * park-resume path (serve::SsdTier) and the cross-server prefix
 * federation fetch (serve::PrefixCache). Both compare the same
 * quantities — an estimated stream makespan plus any fixed overhead
 * (dequant passes, control-plane hops) against the prefill time —
 * scaled by a safety factor that biases toward recompute when the
 * estimates are close (a mispredicted stream stalls a request; a
 * mispredicted recompute merely wastes FLOPs the GPU had anyway).
 *
 * The comparison lives here, once, so the two deciders cannot drift.
 */

#ifndef AQUA_MODEL_STREAM_CHOICE_HH
#define AQUA_MODEL_STREAM_CHOICE_HH

#include "sim/ticks.hh"

namespace aqua::model {

/**
 * Whether streaming a stored copy beats recomputing it.
 *
 * @param streamEstimate Predicted stream makespan (hops + queueing).
 * @param streamOverhead Fixed extra cost of the streamed path
 *        (dequant on arrival, control-plane round trips).
 * @param prefillTime Roofline re-prefill time of the covered tokens.
 * @param safetyFactor Multiplier applied to the streamed side; > 1
 *        biases toward recompute when the two are close.
 * @return true when (streamEstimate + streamOverhead) * safetyFactor
 *         < prefillTime.
 */
bool streamBeatsRecompute(aqua::sim::Tick streamEstimate,
                          aqua::sim::Tick streamOverhead,
                          aqua::sim::Tick prefillTime,
                          double safetyFactor);

} // namespace aqua::model

#endif // AQUA_MODEL_STREAM_CHOICE_HH
