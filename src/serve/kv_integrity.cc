#include "serve/kv_integrity.hh"

namespace aqua::serve {

bool
KvIntegrity::check(std::uint64_t request, const char *path, bool atRest,
                   const std::function<void()> &retransmit)
{
    if (atRest) {
        hw::Ssd *drive = server.topology().ssd();
        if (!drive || !drive->drawBitrot())
            return false;
        ++counters.detected;
        ++counters.recomputeFallbacks;
        emit("corruption_recompute", request, path);
        return true;
    }
    if (!server.topology().drawPayloadCorruption())
        return false;
    ++counters.detected;
    emit("corruption_detected", request, path);
    retransmit();
    ++counters.repairedRetransmit;
    emit("corruption_repaired", request, path);
    return false;
}

void
KvIntegrity::emit(const char *event, std::uint64_t request,
                  const char *path)
{
    if (!tracer)
        return;
    json::Value f;
    f["request"] = static_cast<std::int64_t>(request);
    f["path"] = path;
    tracer->emit(server.simulation().now(), event, std::move(f));
}

} // namespace aqua::serve
