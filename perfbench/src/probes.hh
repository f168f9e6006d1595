/**
 * @file
 * Outside-in probes for the traced run. Nothing here reaches into a
 * layer: the offload path is observed through a forwarding
 * OffloadBackend decorator, the control plane through a REST fault
 * hook that always delivers, the simulator and placer through host
 * timers around their public entry points, and the engines through
 * their onIteration/onComplete hooks. Spans are kept in memory and
 * written out once the run is over.
 */

#ifndef AQUA_PERFBENCH_PROBES_HH
#define AQUA_PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aqua/rest.hh"
#include "serve/offload_backend.hh"
#include "sim/simulation.hh"
#include "workload/request.hh"

namespace aqua::perfbench {

using HostClock = std::chrono::steady_clock;

/** Host seconds since @p t0. */
inline double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/** One call into an offload backend. */
struct OffloadSpan
{
    /** 'a'lloc, 'f'ree, 'w'rite, 'r'ead or re's'pond. */
    char op = 0;
    std::uint64_t bytes = 0;
    /** Simulated tick the call was made at. */
    aqua::sim::Tick issued = 0;
    /** Simulated transfer window (write/read only). */
    aqua::sim::Tick start = 0;
    aqua::sim::Tick complete = 0;
    /** Host seconds spent inside the call. */
    double hostSec = 0.0;
};

/** Queue, prefill and decode of one finished request. */
struct RequestSpan
{
    std::uint64_t key = 0;
    aqua::sim::Tick arrival = 0;
    aqua::sim::Tick admitted = 0;
    aqua::sim::Tick firstToken = 0;
    aqua::sim::Tick finish = 0;
    std::uint32_t tokens = 0;
    bool shed = false;
};

/**
 * Everything the traced run records. A workload given a null Tracer
 * runs bare; given one, it routes every consumer backend through
 * wrap(), hooks every REST router with countRest(), and times every
 * Simulation::run* and AquaPlacer::place call.
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;
    ~Tracer();

    /** Forwarding decorator over @p inner, owned by the tracer. */
    serve::OffloadBackend &wrap(serve::OffloadBackend &inner,
                                aqua::sim::Simulation &sim);

    /** Install a hook on @p router that counts per route and always
     *  delivers. */
    void countRest(core::RestRouter &router);

    /** Run @p sim up to @p limit under the simulator's host timer. */
    void runSim(aqua::sim::Simulation &sim, aqua::sim::Tick limit);

    /** Engine onIteration hook: one decode batch of @p tokens. */
    void
    recordIteration(std::size_t tokens)
    {
        ++iterationCount;
        iterationTokens += tokens;
    }

    /** Engine onComplete hook: keep the request's spans. */
    void recordRequest(const workload::RequestMetrics &m,
                       std::uint64_t keyBase);

    /** Write every span as JSON lines to @p path. @return success. */
    bool writeSpans(const std::string &path,
                    const std::string &workload) const;

    // Recorded host time and counters.
    double placeHostSec = 0.0;
    double simRunHostSec = 0.0;
    double offloadHostSec = 0.0;
    std::uint64_t offloadCalls = 0;
    std::uint64_t offloadBytes = 0;
    double offloadLinkSec = 0.0;
    std::uint64_t iterationCount = 0;
    std::uint64_t iterationTokens = 0;
    std::map<std::string, std::uint64_t> restCalls;

    std::vector<OffloadSpan> offloadSpans;
    std::vector<RequestSpan> requestSpans;

    std::uint64_t
    totalRestCalls() const
    {
        std::uint64_t n = 0;
        for (const auto &[route, count] : restCalls)
            n += count;
        return n;
    }

  private:
    class Backend;
    std::vector<std::unique_ptr<Backend>> backends;
};

/** @p backend itself untraced, its decorator when @p tracer is set. */
inline serve::OffloadBackend &
traced(Tracer *tracer, serve::OffloadBackend &backend,
       aqua::sim::Simulation &sim)
{
    return tracer ? tracer->wrap(backend, sim) : backend;
}

/** Simulation::runUntil, timed when @p tracer is set. */
inline void
runSim(Tracer *tracer, aqua::sim::Simulation &sim, aqua::sim::Tick limit)
{
    if (tracer)
        tracer->runSim(sim, limit);
    else
        sim.runUntil(limit);
}

} // namespace aqua::perfbench

#endif // AQUA_PERFBENCH_PROBES_HH
