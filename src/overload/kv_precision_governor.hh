/**
 * @file
 * Pressure-driven KV precision demotion: quantize-before-evict.
 *
 * The brownout ladder's answer to memory pressure is to move KV
 * *somewhere else* (stop cache publishes, force DRAM offload, reject
 * work). OrbitFlow-style reconfiguration adds an orthogonal knob: make
 * the KV leaving HBM *smaller*. This governor watches the same signals
 * the brownout controller consumes — free-pool fraction plus the
 * current brownout level — and picks the precision at which cold KV
 * (swap-out private tails, parked sessions) is quantized on its way
 * down the tier hierarchy. Resident, actively-decoded KV stays at the
 * serving precision: in-pool blocks are fixed-size, and quantizing hot
 * state would tax every decode step; only bytes already leaving HBM
 * are repriced.
 *
 * The escalation discipline mirrors BrownoutController: demote
 * (narrow) immediately when pressure appears, promote (widen) one step
 * at a time and only after a dwell with pressure gone — the hysteresis
 * band prevents precision flapping around a threshold. Every
 * reconfiguration is traced ("kv_precision") and counted.
 */

#ifndef AQUA_OVERLOAD_KV_PRECISION_GOVERNOR_HH
#define AQUA_OVERLOAD_KV_PRECISION_GOVERNOR_HH

#include <cstdint>

#include "model/kv_precision.hh"
#include "overload/brownout.hh"
#include "sim/ticks.hh"
#include "trace/trace.hh"

namespace aqua::overload {

/** Thresholds and hysteresis tunables. */
struct KvPrecisionGovernorConfig
{
    /** Narrowest precision cold KV may be demoted to. */
    model::KvPrecision floor = model::KvPrecision::Int4;

    /** Free-pool fraction at or below which cold KV demotes one step
     *  (to fp8 from an fp16 serving precision). */
    double freeFp8 = 0.25;

    /** Free-pool fraction at or below which cold KV demotes to the
     *  floor (int4). */
    double freeInt4 = 0.10;

    /** Minimum time between precision changes (hysteresis dwell);
     *  demotion under fresh pressure is always immediate. */
    aqua::sim::Tick minDwell = 200 * aqua::sim::nsPerMs;
};

/** Counters for the demotion path. */
struct KvPrecisionGovernorStats
{
    /** Precision changes performed (either direction). */
    std::uint64_t reconfigurations = 0;
    /** Demotions (precision narrowed). */
    std::uint64_t demotions = 0;
    /** Swap/park payloads written below the serving precision. */
    std::uint64_t demotedPayloads = 0;
    /** Offload bytes avoided by quantizing those payloads. */
    std::uint64_t savedBytes = 0;
};

/**
 * Chooses the precision for KV leaving HBM, given memory pressure.
 */
class KvPrecisionGovernor
{
  public:
    /**
     * @param config Tunables.
     * @param serving The precision KV is served (and resident) at;
     *        the governor never widens past it.
     */
    KvPrecisionGovernor(KvPrecisionGovernorConfig config,
                        model::KvPrecision serving);

    /** Emit a "kv_precision" trace event per reconfiguration. */
    void setTraceLog(trace::TraceLog *log) { tracer = log; }

    /**
     * Evaluate the latest pressure signals; may reconfigure.
     * @param freePoolFraction Free + evictable fraction of the KV pool.
     * @param level Current brownout ladder level (deepens demotion).
     * @return the (possibly new) cold-KV precision.
     */
    model::KvPrecision update(double freePoolFraction,
                              BrownoutLevel level, aqua::sim::Tick now);

    /** Precision KV leaving HBM is quantized to right now. */
    model::KvPrecision coldPrecision() const { return current; }

    /** Whether cold KV is currently demoted below serving precision. */
    bool demoting() const { return current != serving; }

    /**
     * Account one payload written at the current cold precision.
     * @param servingBytes The payload's size at serving precision.
     * @param storedBytes Its size as actually written.
     */
    void notePayload(std::uint64_t servingBytes,
                     std::uint64_t storedBytes);

    const KvPrecisionGovernorStats &stats() const { return counters; }

  private:
    /** Precision the raw signals call for, ignoring hysteresis. */
    model::KvPrecision targetPrecision(double freePoolFraction,
                                       BrownoutLevel level) const;

    void reconfigure(model::KvPrecision next, double freePoolFraction,
                     BrownoutLevel level, aqua::sim::Tick now,
                     const char *reason);

    KvPrecisionGovernorConfig cfg;
    model::KvPrecision serving;
    model::KvPrecision current;
    /** When the current precision was entered. */
    aqua::sim::Tick enteredAt = 0;
    KvPrecisionGovernorStats counters;
    trace::TraceLog *tracer = nullptr;
};

} // namespace aqua::overload

#endif // AQUA_OVERLOAD_KV_PRECISION_GOVERNOR_HH
