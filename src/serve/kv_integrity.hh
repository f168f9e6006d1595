/**
 * @file
 * Read-path integrity checking of KV payloads entering HBM
 * (payload_corrupt / ssd_bitrot faults).
 */

#ifndef AQUA_SERVE_KV_INTEGRITY_HH
#define AQUA_SERVE_KV_INTEGRITY_HH

#include <cstdint>
#include <functional>

#include "hw/server.hh"
#include "trace/trace.hh"

namespace aqua::serve {

/**
 * Read-path integrity counters (payload_corrupt / ssd_bitrot faults).
 * Every KV payload entering HBM — swap-in, peer prefix stream, SSD
 * resume — is signature-verified on arrival; these count the
 * detections and which recovery path cleared them. All zero in
 * fault-free runs.
 */
struct IntegrityEngineStats
{
    /** Signature mismatches caught at read time. */
    std::uint64_t detected = 0;
    /** Repaired by re-reading (link corruption: source still good). */
    std::uint64_t repairedRetransmit = 0;
    /** Unrepairable (at-rest bitrot): KV dropped and recomputed. */
    std::uint64_t recomputeFallbacks = 0;
};

/** The check behind those counters, with its "corruption_*" trace
 *  events. */
class KvIntegrity
{
  public:
    explicit KvIntegrity(hw::Server &server) : server(server) {}

    void setTraceLog(trace::TraceLog *log) { tracer = log; }
    const IntegrityEngineStats &stats() const { return counters; }

    /**
     * Signature-verify request @p request's payload arriving over
     * @p path (named in the trace). A payload stored on the SSD
     * (@p atRest) draws ssd_bitrot: the stored copy itself is damaged,
     * so a hit counts a recompute fallback and returns true, and the
     * caller drops the KV. Any other payload draws payload_corrupt: a
     * hit is link corruption with an intact source, so @p retransmit
     * re-reads it and the repair is counted.
     */
    bool check(std::uint64_t request, const char *path, bool atRest,
               const std::function<void()> &retransmit);

  private:
    void emit(const char *event, std::uint64_t request,
              const char *path);

    hw::Server &server;
    trace::TraceLog *tracer = nullptr;
    IntegrityEngineStats counters;
};

} // namespace aqua::serve

#endif // AQUA_SERVE_KV_INTEGRITY_HH
