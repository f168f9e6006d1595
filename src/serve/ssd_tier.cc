#include "serve/ssd_tier.hh"

#include <algorithm>

#include "model/stream_choice.hh"
#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

SsdTier::SsdTier(hw::Server &server, hw::GpuId gpu, SsdTierConfig config)
    : server(server), cfg(config), store(server, gpu),
      resumes(server.simulation()),
      resumeRoute(TransferPlan::ssdRoute(server, gpu))
{
    if (cfg.parkAfterSec <= 0 || cfg.pressureParkAfterSec <= 0)
        panic("SsdTier: park thresholds must be positive");
}

bool
SsdTier::park(std::uint64_t sessionKey, std::uint64_t bytes,
              std::uint32_t tokens, model::KvPrecision precision,
              double idleGapSec, Tick now)
{
    if (idleGapSec < cfg.parkAfterSec || bytes == 0)
        return false;
    // A failed drive takes no new sessions; the KV is simply dropped
    // and the session re-prefills when it comes back.
    if (server.ssd().failed())
        return false;
    dropParked(sessionKey);
    auto handle = store.alloc(bytes);
    if (!handle)
        return false;
    // Bulk sequential dump, window-sized accesses: parking rides the
    // fast end of the drive's sequential-vs-random ramp.
    std::uint64_t nChunks = std::max<std::uint64_t>(
        1, bytes / TransferPlan::windowBytes);
    store.write(*handle, bytes, nChunks, now);
    sessions[sessionKey] = Parked{*handle, tokens, precision, 0};
    return true;
}

const SsdTier::Parked *
SsdTier::parked(std::uint64_t sessionKey) const
{
    auto it = sessions.find(sessionKey);
    return it == sessions.end() ? nullptr : &it->second;
}

bool
SsdTier::streamWins(Tick streamEstimate, Tick prefillTime,
                    Tick streamOverhead) const
{
    return !server.ssd().failed() &&
           model::streamBeatsRecompute(streamEstimate, streamOverhead,
                                       prefillTime,
                                       cfg.resumeSafetyFactor);
}

TransferPlan::StreamId
SsdTier::beginResume(std::uint64_t sessionKey, Tick now,
                     Tick prefillTime, ResumeCallback done,
                     Tick streamOverhead)
{
    auto it = sessions.find(sessionKey);
    if (it == sessions.end() || it->second.stream != 0)
        return 0;
    std::uint64_t bytes = it->second.handle.bytes;
    // The crossover check sees the device as it is *now*: degradation
    // inflates the estimate (and failure forces recompute), so a
    // mid-incident resume naturally falls back to re-prefilling. A
    // quantized parked copy streams fewer bytes but adds its dequant
    // pass as streamOverhead.
    if (!streamWins(resumes.estimate(resumeRoute, bytes), prefillTime,
                    streamOverhead)) {
        dropParked(sessionKey);
        return 0;
    }
    it->second.stream = resumes.start(
        resumeRoute, bytes, now,
        [this, sessionKey,
         done = std::move(done)](const TransferPlan::Done &d) {
            dropParked(sessionKey);
            if (done)
                done(!d.cancelled);
        });
    return it->second.stream;
}

void
SsdTier::cancelResume(std::uint64_t sessionKey)
{
    auto it = sessions.find(sessionKey);
    if (it == sessions.end())
        return;
    if (it->second.stream != 0 && resumes.active(it->second.stream)) {
        // The stream's completion callback frees the entry.
        resumes.cancel(it->second.stream);
        return;
    }
    dropParked(sessionKey);
}

std::vector<std::uint64_t>
SsdTier::selectDemotions(Tick now, bool pressure) const
{
    double threshold =
        pressure ? cfg.pressureParkAfterSec : cfg.parkAfterSec;
    std::vector<std::pair<double, std::uint64_t>> ranked;
    for (const auto &[key, landed] : demotable) {
        double age = ticksToSec(now > landed ? now - landed : 0);
        if (age > threshold)
            ranked.emplace_back(age, key);
    }
    // Oldest first; key breaks ties deterministically.
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    if (ranked.size() > maxDemotionsPerSettle)
        ranked.resize(maxDemotionsPerSettle);
    std::vector<std::uint64_t> keys;
    keys.reserve(ranked.size());
    for (const auto &[age, key] : ranked)
        keys.push_back(key);
    return keys;
}

std::optional<OffloadBackend::Handle>
SsdTier::demote(std::uint64_t key, OffloadBackend &from,
                const OffloadBackend::Handle &handle,
                std::uint64_t nChunks, Tick now)
{
    if (server.ssd().failed())
        return std::nullopt;
    auto moved = store.alloc(handle.bytes);
    if (!moved)
        return std::nullopt;
    // Tier-local move: the bytes already sit in host DRAM, so the
    // drain touches only the media, not the GPU's PCIe ports.
    store.writeFromDram(*moved, handle.bytes, nChunks, now);
    from.free(handle);
    demotable.erase(key);
    return moved;
}

std::uint64_t
SsdTier::parkedBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[key, parked] : sessions)
        total += parked.handle.bytes;
    return total;
}

void
SsdTier::dropParked(std::uint64_t sessionKey)
{
    auto it = sessions.find(sessionKey);
    if (it == sessions.end())
        return;
    store.free(it->second.handle);
    sessions.erase(it);
}

} // namespace aqua::serve
