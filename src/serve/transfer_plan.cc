#include "serve/transfer_plan.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace aqua::serve {

using namespace aqua::sim;

namespace {

using Hop = TransferPlan::Hop;

/** Pure duration of a @p bytes window on @p h, at its current
 *  degradation. */
Tick
hopDuration(const Hop &h, std::uint64_t bytes)
{
    if (h.kind == Hop::Kind::Media)
        return h.topology->ssd()->readDuration(bytes, 1);
    if (h.kind == Hop::Kind::Copy)
        return h.topology->hostTransferDuration(bytes);
    return h.fabric->wireDuration(bytes);
}

/** Reserve a @p bytes window on @p h from @p earliest; returns when
 *  it lands. */
Tick
issueHop(const Hop &h, std::uint64_t bytes, Tick earliest)
{
    if (h.kind == Hop::Kind::Media)
        return h.topology->ssd()->read(bytes, 1, earliest);
    if (h.kind == Hop::Kind::Copy)
        return h.topology->copy(h.src, h.dst, bytes, {}, earliest).complete;
    return h.fabric->transfer(h.fromServer, h.toServer, bytes, {}, earliest)
        .complete;
}

/** Whether the drive or a GPU behind @p h has failed. */
bool
hopFailed(const Hop &h)
{
    if (h.kind == Hop::Kind::Media)
        return h.topology->ssdFailed();
    return h.kind == Hop::Kind::Copy && (h.topology->gpuFailed(h.src) ||
                                         h.topology->gpuFailed(h.dst));
}

} // anonymous namespace

TransferPlan::Route
TransferPlan::ssdRoute(hw::Server &server, hw::GpuId gpu)
{
    hw::Topology *topo = &server.topology();
    return {{Hop{Hop::Kind::Media, topo},
             Hop{Hop::Kind::Copy, topo, hw::hostDramId, gpu}},
            2};
}

TransferPlan::Route
TransferPlan::fabricRoute(hw::Fabric &fabric, std::size_t home,
                          hw::GpuId homeGpu, std::size_t consumer,
                          hw::GpuId gpu)
{
    return {{Hop{Hop::Kind::Copy, &fabric.serverTopology(home), homeGpu,
                 hw::hostDramId},
             Hop{Hop::Kind::Wire, nullptr, hw::hostDramId, hw::hostDramId,
                 &fabric, home, consumer},
             Hop{Hop::Kind::Copy, &fabric.serverTopology(consumer),
                 hw::hostDramId, gpu}},
            3};
}

TransferPlan::TransferPlan(Simulation &sim, std::uint32_t buffers)
    : sim(sim), buffers(buffers)
{
    if (buffers == 0)
        panic("TransferPlan: buffer count must be positive");
}

TransferPlan::StreamId
TransferPlan::start(const Route &route, std::uint64_t bytes,
                    Tick earliest, DoneCallback onDone)
{
    if (bytes == 0)
        panic("TransferPlan::start: stream size must be positive");
    StreamId id = nextStream++;
    Tick at = std::max(sim.now(), earliest);
    Stream s;
    s.route = route;
    s.remaining = bytes;
    s.start = at;
    s.bufFree.assign((route.size - 1) * buffers, 0);
    s.onDone = std::move(onDone);
    streams.emplace(id, std::move(s));
    ++counters.streamsStarted;
    sim.queue().schedule(at, [this, id] { issueWindow(id); });
    return id;
}

bool
TransferPlan::cancel(StreamId id)
{
    auto it = streams.find(id);
    if (it == streams.end() || it->second.cancelled)
        return false;
    it->second.cancelled = true;
    return true;
}

bool
TransferPlan::active(StreamId id) const
{
    return streams.count(id) != 0;
}

void
TransferPlan::issueWindow(StreamId id)
{
    Stream &s = streams.at(id);
    const Route &r = s.route;
    if (s.cancelled ||
        std::any_of(r.hops.begin(), r.hops.begin() + r.size, hopFailed)) {
        // Prediction miss or a device died mid-stream: stop issuing.
        // Either way the caller's onDone sees cancelled and falls
        // back to recompute.
        finishStream(id, true);
        return;
    }

    std::uint64_t w = std::min(windowBytes, s.remaining);
    std::uint32_t slot = s.windows++ % buffers;
    // Each hop starts once the previous hop landed the window and the
    // bounce buffer it writes into has drained through the next hop.
    Tick landed = sim.now();
    Tick firstDone = 0;
    for (std::size_t j = 0; j < r.size; ++j) {
        Tick earliest = landed;
        if (j + 1 < r.size)
            earliest = std::max(earliest, s.bufFree[j * buffers + slot]);
        landed = issueHop(r.hops[j], w, earliest);
        if (j == 0)
            firstDone = landed;
        else
            s.bufFree[(j - 1) * buffers + slot] = landed;
        s.hopTime[j] += hopDuration(r.hops[j], w);
    }

    ++counters.windowsIssued;
    s.lastComplete = landed;
    s.delivered += w;
    s.remaining -= w;

    if (s.remaining > 0) {
        // Continue when the first hop is free again: the next window
        // starts while this one still drains through the later hops.
        sim.queue().schedule(firstDone, [this, id] { issueWindow(id); });
    } else {
        sim.queue().schedule(landed,
                             [this, id] { finishStream(id, false); });
    }
}

void
TransferPlan::finishStream(StreamId id, bool cancelled)
{
    auto it = streams.find(id);
    Stream s = std::move(it->second);
    streams.erase(it);
    cancelled = cancelled || s.cancelled;

    Done done;
    done.start = s.start;
    done.complete = std::max(s.lastComplete, sim.now());
    done.bytes = s.delivered;
    done.cancelled = cancelled;

    Tick makespan = done.complete - done.start;
    Tick total = 0, longest = 0;
    for (std::size_t j = 0; j < s.route.size; ++j) {
        total += s.hopTime[j];
        longest = std::max(longest, s.hopTime[j]);
    }
    Tick hideable = total - longest;
    if (hideable > 0 && total > makespan) {
        double eff = static_cast<double>(total - makespan) / hideable;
        done.overlapEfficiency = std::min(1.0, eff);
    }

    if (cancelled) {
        ++counters.streamsCancelled;
        counters.bytesWasted += s.delivered;
        counters.windowsCancelled +=
            (s.remaining + windowBytes - 1) / windowBytes;
    } else {
        ++counters.streamsCompleted;
        counters.bytesStreamed += s.delivered;
        counters.overlapEfficiency.add(done.overlapEfficiency);
    }

    if (s.onDone)
        s.onDone(done);
}

Tick
TransferPlan::estimate(const Route &r, std::uint64_t bytes) const
{
    // landed[(N % buffers) * r.size + j]: when hop j of window N lands.
    // Before window N overwrites its row, the row holds window
    // N - buffers, whose next hop drains the buffer window N reuses.
    std::vector<Tick> landed(std::size_t(buffers) * r.size, 0);
    std::uint64_t windows = (bytes + windowBytes - 1) / windowBytes;
    Tick ready = 0;
    for (std::uint64_t n = 0; n < windows; ++n) {
        std::uint64_t w = std::min(windowBytes, bytes - n * windowBytes);
        Tick *row = &landed[(n % buffers) * r.size];
        const Tick *prev = &landed[((n + buffers - 1) % buffers) * r.size];
        ready = 0;
        for (std::size_t j = 0; j < r.size; ++j) {
            Tick begin = std::max(ready, prev[j]);
            if (j + 1 < r.size)
                begin = std::max(begin, row[j + 1]);
            ready = row[j] = begin + hopDuration(r.hops[j], w);
        }
    }
    return ready;
}

} // namespace aqua::serve
