#include "probes.hh"

#include <cstdio>

namespace aqua::perfbench {

/** The forwarding decorator: same answers, timed and recorded. */
class Tracer::Backend : public serve::OffloadBackend
{
  public:
    Backend(Tracer &tracer, serve::OffloadBackend &inner,
            aqua::sim::Simulation &sim)
        : tracer(tracer), inner(inner), sim(sim)
    {}

    std::optional<Handle>
    alloc(std::uint64_t bytes) override
    {
        auto t0 = HostClock::now();
        std::optional<Handle> h = inner.alloc(bytes);
        record('a', bytes, {0, 0}, t0);
        return h;
    }

    void
    free(const Handle &handle) override
    {
        auto t0 = HostClock::now();
        inner.free(handle);
        record('f', handle.bytes, {0, 0}, t0);
    }

    hw::TransferTiming
    write(const Handle &handle, std::uint64_t bytes,
          std::uint64_t nChunks, aqua::sim::Tick earliest) override
    {
        auto t0 = HostClock::now();
        hw::TransferTiming t = inner.write(handle, bytes, nChunks,
                                           earliest);
        record('w', bytes, t, t0);
        return t;
    }

    hw::TransferTiming
    read(const Handle &handle, std::uint64_t bytes,
         std::uint64_t nChunks, aqua::sim::Tick earliest) override
    {
        auto t0 = HostClock::now();
        hw::TransferTiming t = inner.read(handle, bytes, nChunks,
                                          earliest);
        record('r', bytes, t, t0);
        return t;
    }

    aqua::sim::Tick
    respond() override
    {
        auto t0 = HostClock::now();
        aqua::sim::Tick until = inner.respond();
        record('s', 0, {0, 0}, t0);
        return until;
    }

    bool staged() const override { return inner.staged(); }

    aqua::sim::Tick
    lastEvacuationAt() const override
    {
        return inner.lastEvacuationAt();
    }

    std::string name() const override { return inner.name(); }

  private:
    void
    record(char op, std::uint64_t bytes, hw::TransferTiming t,
           HostClock::time_point t0)
    {
        double host = secondsSince(t0);
        tracer.offloadHostSec += host;
        ++tracer.offloadCalls;
        if (op == 'w' || op == 'r') {
            tracer.offloadBytes += bytes;
            tracer.offloadLinkSec +=
                aqua::sim::ticksToSec(t.complete - t.start);
        }
        tracer.offloadSpans.push_back(
            {op, bytes, sim.now(), t.start, t.complete, host});
    }

    Tracer &tracer;
    serve::OffloadBackend &inner;
    aqua::sim::Simulation &sim;
};

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

serve::OffloadBackend &
Tracer::wrap(serve::OffloadBackend &inner, aqua::sim::Simulation &sim)
{
    backends.push_back(std::make_unique<Backend>(*this, inner, sim));
    return *backends.back();
}

void
Tracer::countRest(core::RestRouter &router)
{
    router.setFaultHook([this](const std::string &route,
                               const json::Value &) {
        ++restCalls[route];
        return core::DispatchFault{};
    });
}

void
Tracer::runSim(aqua::sim::Simulation &sim, aqua::sim::Tick limit)
{
    auto t0 = HostClock::now();
    sim.runUntil(limit);
    simRunHostSec += secondsSince(t0);
}

void
Tracer::recordRequest(const workload::RequestMetrics &m,
                      std::uint64_t keyBase)
{
    requestSpans.push_back({keyBase + m.id, m.arrival, m.admitted,
                            m.firstToken, m.finish, m.tokensGenerated,
                            m.shed});
}

bool
Tracer::writeSpans(const std::string &path,
                   const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    using aqua::sim::ticksToSec;
    for (const RequestSpan &r : requestSpans) {
        // Requests admitted in the tick they arrived record 0.
        aqua::sim::Tick admitted = std::max(r.admitted, r.arrival);
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"kind\":\"request\","
                     "\"key\":%llu,\"arrival_s\":%.9f,\"queue_s\":%.9f,"
                     "\"prefill_s\":%.9f,\"decode_s\":%.9f,"
                     "\"tokens\":%u,\"shed\":%s}\n",
                     workload.c_str(),
                     static_cast<unsigned long long>(r.key),
                     ticksToSec(r.arrival),
                     ticksToSec(admitted - r.arrival),
                     ticksToSec(r.firstToken - admitted),
                     ticksToSec(r.finish - r.firstToken), r.tokens,
                     r.shed ? "true" : "false");
    }
    for (const OffloadSpan &o : offloadSpans) {
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"kind\":\"offload\","
                     "\"op\":\"%c\",\"bytes\":%llu,\"issued_s\":%.9f,"
                     "\"start_s\":%.9f,\"complete_s\":%.9f,"
                     "\"host_s\":%.9f}\n",
                     workload.c_str(), o.op,
                     static_cast<unsigned long long>(o.bytes),
                     ticksToSec(o.issued), ticksToSec(o.start),
                     ticksToSec(o.complete), o.hostSec);
    }
    for (const auto &[route, count] : restCalls) {
        std::fprintf(f,
                     "{\"workload\":\"%s\",\"kind\":\"rest\","
                     "\"route\":\"%s\",\"calls\":%llu}\n",
                     workload.c_str(), route.c_str(),
                     static_cast<unsigned long long>(count));
    }
    return std::fclose(f) == 0;
}

} // namespace aqua::perfbench
