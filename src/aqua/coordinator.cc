#include "aqua/coordinator.hh"

#include <algorithm>

#include "recovery/state_journal.hh"
#include "sim/logging.hh"

namespace aqua::core {

using aqua::sim::panic;

namespace {

const char *
placementName(Placement p)
{
    return p == Placement::PeerGpu ? "peer" : "dram";
}

Location
locationFromJson(const json::Value &v, const char *placementKey,
                 const char *gpuKey)
{
    Location loc;
    if (v.getString(placementKey, "dram") == "peer") {
        loc.placement = Placement::PeerGpu;
        loc.gpu = static_cast<hw::GpuId>(v.getInt(gpuKey, 0));
    }
    return loc;
}

void
locationToJson(json::Value &v, const Location &loc,
               const char *placementKey, const char *gpuKey)
{
    v[placementKey] = std::string(placementName(loc.placement));
    v[gpuKey] = loc.gpu;
}

/** Fields of an order or done record: a tensor and its destination. */
json::Value
moveFields(TensorId id, const Location &to)
{
    json::Value f;
    f["tensor"] = id;
    locationToJson(f, to, "to", "to_gpu");
    return f;
}

} // anonymous namespace

void
Coordinator::jlog(const char *op, json::Value fields)
{
    if (journal)
        journal->append(op, std::move(fields));
}

void
Coordinator::assignProducer(hw::GpuId consumer, hw::GpuId producer)
{
    std::lock_guard<std::mutex> lock(mtx);
    assignments[consumer] = producer;
    json::Value f;
    f["consumer"] = consumer;
    f["producer"] = producer;
    jlog("assign", std::move(f));
}

std::optional<hw::GpuId>
Coordinator::producerFor(hw::GpuId consumer) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = assignments.find(consumer);
    if (it == assignments.end())
        return std::nullopt;
    return it->second;
}

LeaseResult
Coordinator::lease(hw::GpuId producer, std::uint64_t bytes,
                   aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    ProducerState &p = producers[producer];
    // An unfinished reclaim means consumers are still evacuating this
    // producer; a fresh offer would race the drain.
    if (p.reclaimRequested && p.usedBytes > 0)
        return LeaseResult::ReclaimOutstanding;
    p.leasedBytes += bytes;
    p.reclaimRequested = false;
    p.alive = true;
    p.lastHeartbeat = now;
    json::Value f;
    f["gpu"] = producer;
    f["bytes"] = bytes;
    f["now"] = static_cast<std::uint64_t>(now);
    jlog("lease", std::move(f));
    return LeaseResult::Ok;
}

bool
Coordinator::heartbeat(hw::GpuId producer, aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = producers.find(producer);
    if (it == producers.end())
        return false;
    it->second.lastHeartbeat = now;
    // A heartbeat from an expired producer revives the lease: the
    // software is back, even if a reclaim is still draining.
    it->second.alive = true;
    return true;
}

void
Coordinator::setLeaseTtl(aqua::sim::Tick newTtl)
{
    std::lock_guard<std::mutex> lock(mtx);
    ttl = newTtl;
    json::Value f;
    f["ticks"] = static_cast<std::uint64_t>(newTtl);
    jlog("ttl", std::move(f));
}

std::vector<hw::GpuId>
Coordinator::expireLeasesLocked(aqua::sim::Tick now)
{
    std::vector<hw::GpuId> expired;
    if (ttl == 0 || now == 0)
        return expired;
    for (auto &[gpu, p] : producers) {
        if (!p.alive || now <= p.lastHeartbeat + ttl)
            continue;
        p.alive = false;
        // Dead lease: the memory must come back regardless of what
        // the (unreachable) producer wanted.
        p.reclaimRequested = true;
        p.reclaimUrgency = ReclaimUrgency::Urgent;
        expired.push_back(gpu);
        json::Value f;
        f["gpu"] = gpu;
        jlog("expire", std::move(f));
    }
    return expired;
}

std::vector<hw::GpuId>
Coordinator::expireLeases(aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    return expireLeasesLocked(now);
}

bool
Coordinator::leaseAlive(hw::GpuId producer) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = producers.find(producer);
    return it != producers.end() && it->second.alive;
}

void
Coordinator::requestReclaim(hw::GpuId producer, ReclaimUrgency urgency)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = producers.find(producer);
    if (it == producers.end())
        panic("Coordinator::requestReclaim: unknown producer %d",
              producer);
    ProducerState &p = it->second;
    if (!p.reclaimRequested)
        p.reclaimUrgency = urgency;
    else if (urgency == ReclaimUrgency::Urgent)
        p.reclaimUrgency = ReclaimUrgency::Urgent;
    p.reclaimRequested = true;
    json::Value f;
    f["gpu"] = producer;
    f["urgency"] = std::string(reclaimUrgencyName(p.reclaimUrgency));
    jlog("reclaim", std::move(f));
}

void
Coordinator::setGracefulEvacBatch(std::size_t ordersPerRespond)
{
    std::lock_guard<std::mutex> lock(mtx);
    gracefulBatch = ordersPerRespond;
    json::Value f;
    f["n"] = static_cast<std::uint64_t>(ordersPerRespond);
    jlog("evac_batch", std::move(f));
}

bool
Coordinator::reclaimComplete(hw::GpuId producer) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = producers.find(producer);
    if (it == producers.end())
        return true;
    return it->second.usedBytes == 0;
}

ReleaseResult
Coordinator::releaseLease(hw::GpuId producer)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = producers.find(producer);
    if (it == producers.end())
        return ReleaseResult::UnknownProducer;
    if (it->second.usedBytes != 0)
        return ReleaseResult::StillOccupied;
    producers.erase(it);
    json::Value f;
    f["gpu"] = producer;
    jlog("release", std::move(f));
    return ReleaseResult::Ok;
}

ProducerState
Coordinator::producerState(hw::GpuId producer) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = producers.find(producer);
    if (it == producers.end())
        return ProducerState{};
    return it->second;
}

Coordinator::Allocation
Coordinator::allocateLocked(hw::GpuId consumer, std::uint64_t bytes)
{
    Location loc;
    auto assigned = assignments.find(consumer);
    if (assigned != assignments.end()) {
        auto pit = producers.find(assigned->second);
        if (pit != producers.end() && pit->second.alive &&
            !pit->second.reclaimRequested &&
            pit->second.usedBytes + bytes <= pit->second.leasedBytes) {
            loc.placement = Placement::PeerGpu;
            loc.gpu = assigned->second;
            pit->second.usedBytes += bytes;
        }
    }
    // Fallback: host DRAM, "just like previous work" (§3).
    TensorState state;
    state.id = nextTensor++;
    state.consumer = consumer;
    state.bytes = bytes;
    state.location = loc;
    tensors[state.id] = state;
    // Outcome-carrying record: replay recreates the placement without
    // re-running the policy (producer occupancy may have changed).
    if (journal) {
        json::Value f;
        f["tensor"] = state.id;
        f["consumer"] = consumer;
        f["bytes"] = bytes;
        locationToJson(f, loc, "placement", "gpu");
        jlog("alloc", std::move(f));
    }
    return Allocation{state.id, loc};
}

Coordinator::Allocation
Coordinator::allocate(hw::GpuId consumer, std::uint64_t bytes,
                      aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    expireLeasesLocked(now);
    return allocateLocked(consumer, bytes);
}

void
Coordinator::free(TensorId id)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = tensors.find(id);
    if (it == tensors.end())
        panic("Coordinator::free: unknown tensor %llu",
              static_cast<unsigned long long>(id));
    const TensorState &t = it->second;
    if (t.migratingTo)
        panic("Coordinator::free: tensor %llu is mid-migration",
              static_cast<unsigned long long>(id));
    if (t.location.placement == Placement::PeerGpu) {
        auto pit = producers.find(t.location.gpu);
        if (pit == producers.end())
            panic("Coordinator::free: tensor on unknown producer");
        pit->second.usedBytes -= t.bytes;
    }
    tensors.erase(it);
    if (journal) {
        json::Value f;
        f["tensor"] = id;
        jlog("free", std::move(f));
    }
}

std::vector<MigrationOrder>
Coordinator::respond(hw::GpuId consumer, aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    expireLeasesLocked(now);
    std::vector<MigrationOrder> orders;

    // Pass 1: evacuate tensors sitting on reclaiming producers. A
    // graceful reclaim is staged: at most gracefulBatch evacuation
    // orders per respond round, so the consumer engine interleaves
    // iterations with the copies instead of taking a stop-the-world
    // flush. Urgent and emergency reclaims always flush everything.
    std::size_t gracefulIssued = 0;
    for (auto &[id, t] : tensors) {
        if (t.consumer != consumer || t.migratingTo)
            continue;
        if (t.location.placement != Placement::PeerGpu)
            continue;
        auto pit = producers.find(t.location.gpu);
        if (pit == producers.end() || !pit->second.reclaimRequested)
            continue;
        bool emergency = !pit->second.alive;
        ReclaimUrgency urgency = emergency
                                     ? ReclaimUrgency::Urgent
                                     : pit->second.reclaimUrgency;
        if (urgency == ReclaimUrgency::Graceful && gracefulBatch > 0 &&
            gracefulIssued >= gracefulBatch)
            continue;
        MigrationOrder order;
        order.tensor = id;
        order.bytes = t.bytes;
        order.from = t.location;
        order.to = Location{Placement::HostDram, hw::hostDramId};
        order.emergency = emergency;
        order.urgency = urgency;
        t.migratingTo = order.to;
        if (urgency == ReclaimUrgency::Graceful)
            ++gracefulIssued;
        if (journal)
            jlog("order", moveFields(id, order.to));
        orders.push_back(order);
    }

    // Pass 2: promote DRAM tensors back onto the assigned producer's
    // lease while it has room.
    auto assigned = assignments.find(consumer);
    if (assigned != assignments.end()) {
        auto pit = producers.find(assigned->second);
        if (pit != producers.end() && pit->second.alive &&
            !pit->second.reclaimRequested) {
            ProducerState &p = pit->second;
            for (auto &[id, t] : tensors) {
                if (t.consumer != consumer || t.migratingTo)
                    continue;
                if (t.location.placement != Placement::HostDram)
                    continue;
                if (p.usedBytes + t.bytes > p.leasedBytes)
                    continue;
                MigrationOrder order;
                order.tensor = id;
                order.bytes = t.bytes;
                order.from = t.location;
                order.to =
                    Location{Placement::PeerGpu, assigned->second};
                order.urgency = ReclaimUrgency::Graceful;
                // Reserve destination space immediately so concurrent
                // allocations cannot oversubscribe the lease.
                p.usedBytes += t.bytes;
                t.migratingTo = order.to;
                if (journal)
                    jlog("order", moveFields(id, order.to));
                orders.push_back(order);
            }
        }
    }
    return orders;
}

void
Coordinator::doneMoving(const MigrationOrder &order)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = tensors.find(order.tensor);
    if (it == tensors.end())
        panic("Coordinator::doneMoving: unknown tensor %llu",
              static_cast<unsigned long long>(order.tensor));
    TensorState &t = it->second;
    if (!t.migratingTo) {
        // Duplicate ack: a consumer re-delivers unacknowledged
        // /done_moving calls after REST failures, and a post-crash
        // resync clears migratingTo with the survivor's ground-truth
        // location. If the tensor already sits where the order said,
        // the move landed — absorb the retry instead of panicking.
        if (t.location == order.to)
            return;
        panic("Coordinator::doneMoving: no migration in flight for "
              "tensor %llu and its location does not match the ack",
              static_cast<unsigned long long>(order.tensor));
    }
    if (!(*t.migratingTo == order.to))
        panic("Coordinator::doneMoving: order does not match the "
              "in-flight migration");
    // Release the source's lease bytes if it was on a producer.
    if (t.location.placement == Placement::PeerGpu) {
        auto pit = producers.find(t.location.gpu);
        if (pit == producers.end())
            panic("Coordinator::doneMoving: unknown source producer");
        pit->second.usedBytes -= t.bytes;
    }
    t.location = order.to;
    t.migratingTo.reset();
    if (journal)
        jlog("done", moveFields(order.tensor, order.to));
}

Location
Coordinator::tensorLocation(TensorId id) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = tensors.find(id);
    if (it == tensors.end())
        panic("Coordinator::tensorLocation: unknown tensor %llu",
              static_cast<unsigned long long>(id));
    return it->second.location;
}

std::size_t
Coordinator::liveTensors() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return tensors.size();
}

std::uint64_t
Coordinator::bytesOnProducers() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::uint64_t total = 0;
    for (const auto &[gpu, p] : producers)
        total += p.usedBytes;
    return total;
}

std::uint64_t
Coordinator::bytesInDram() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::uint64_t total = 0;
    for (const auto &[id, t] : tensors) {
        if (t.location.placement == Placement::HostDram &&
            !t.migratingTo)
            total += t.bytes;
    }
    return total;
}

//
// Crash recovery.
//

void
Coordinator::attachJournal(aqua::recovery::StateJournal *j)
{
    std::lock_guard<std::mutex> lock(mtx);
    journal = j;
    // Compaction runs inside append() — under mtx — so the provider
    // must use the unlocked export. (External compact() calls are fine
    // too: the simulation drives the coordinator single-threaded.)
    if (journal)
        journal->setSnapshotProvider(
            [this] { return exportStateLocked(); });
}

json::Value
Coordinator::exportStateLocked() const
{
    json::Value v;
    v["next_tensor"] = nextTensor;
    v["ttl"] = static_cast<std::uint64_t>(ttl);
    v["evac_batch"] = static_cast<std::uint64_t>(gracefulBatch);
    json::Array asg;
    for (const auto &[consumer, producer] : assignments) {
        json::Value e;
        e["consumer"] = consumer;
        e["producer"] = producer;
        asg.push_back(std::move(e));
    }
    v["assignments"] = json::Value(std::move(asg));
    json::Array prods;
    for (const auto &[gpu, p] : producers) {
        json::Value e;
        e["gpu"] = gpu;
        e["leased"] = p.leasedBytes;
        e["used"] = p.usedBytes;
        e["reclaim"] = p.reclaimRequested;
        e["urgency"] =
            std::string(reclaimUrgencyName(p.reclaimUrgency));
        e["alive"] = p.alive;
        e["hb"] = static_cast<std::uint64_t>(p.lastHeartbeat);
        prods.push_back(std::move(e));
    }
    v["producers"] = json::Value(std::move(prods));
    json::Array tens;
    for (const auto &[id, t] : tensors) {
        json::Value e;
        e["id"] = id;
        e["consumer"] = t.consumer;
        e["bytes"] = t.bytes;
        locationToJson(e, t.location, "placement", "gpu");
        e["migrating"] = t.migratingTo.has_value();
        if (t.migratingTo)
            locationToJson(e, *t.migratingTo, "mig_placement",
                           "mig_gpu");
        tens.push_back(std::move(e));
    }
    v["tensors"] = json::Value(std::move(tens));
    return v;
}

json::Value
Coordinator::exportState() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return exportStateLocked();
}

void
Coordinator::reset()
{
    std::lock_guard<std::mutex> lock(mtx);
    nextTensor = 1;
    ttl = 0;
    gracefulBatch = 0;
    producers.clear();
    assignments.clear();
    tensors.clear();
}

void
Coordinator::restoreState(const json::Value &snapshot)
{
    std::lock_guard<std::mutex> lock(mtx);
    nextTensor =
        static_cast<TensorId>(snapshot.getInt("next_tensor", 1));
    ttl = static_cast<aqua::sim::Tick>(snapshot.getInt("ttl", 0));
    gracefulBatch =
        static_cast<std::size_t>(snapshot.getInt("evac_batch", 0));
    if (const json::Value *asg = snapshot.find("assignments")) {
        for (const json::Value &e : asg->asArray())
            assignments[static_cast<hw::GpuId>(e.getInt("consumer", 0))] =
                static_cast<hw::GpuId>(e.getInt("producer", 0));
    }
    if (const json::Value *prods = snapshot.find("producers")) {
        for (const json::Value &e : prods->asArray()) {
            ProducerState p;
            p.leasedBytes =
                static_cast<std::uint64_t>(e.getInt("leased", 0));
            p.usedBytes =
                static_cast<std::uint64_t>(e.getInt("used", 0));
            p.reclaimRequested = e.getBool("reclaim", false);
            p.reclaimUrgency =
                reclaimUrgencyFromName(e.getString("urgency", "urgent"));
            p.alive = e.getBool("alive", true);
            p.lastHeartbeat =
                static_cast<aqua::sim::Tick>(e.getInt("hb", 0));
            producers[static_cast<hw::GpuId>(e.getInt("gpu", 0))] = p;
        }
    }
    if (const json::Value *tens = snapshot.find("tensors")) {
        for (const json::Value &e : tens->asArray()) {
            TensorState t;
            t.id = static_cast<TensorId>(e.getInt("id", 0));
            t.consumer =
                static_cast<hw::GpuId>(e.getInt("consumer", 0));
            t.bytes = static_cast<std::uint64_t>(e.getInt("bytes", 0));
            t.location = locationFromJson(e, "placement", "gpu");
            if (e.getBool("migrating", false))
                t.migratingTo =
                    locationFromJson(e, "mig_placement", "mig_gpu");
            tensors[t.id] = t;
        }
    }
}

void
Coordinator::eraseTensorLocked(TensorId id)
{
    auto it = tensors.find(id);
    if (it == tensors.end())
        return;
    TensorState &t = it->second;
    if (t.location.placement == Placement::PeerGpu) {
        auto pit = producers.find(t.location.gpu);
        if (pit != producers.end())
            pit->second.usedBytes -=
                std::min(pit->second.usedBytes, t.bytes);
    }
    // A reserved promotion destination holds bytes too.
    if (t.migratingTo &&
        t.migratingTo->placement == Placement::PeerGpu) {
        auto pit = producers.find(t.migratingTo->gpu);
        if (pit != producers.end())
            pit->second.usedBytes -=
                std::min(pit->second.usedBytes, t.bytes);
    }
    tensors.erase(it);
}

void
Coordinator::applyJournalRecordLocked(const std::string &op,
                                      const json::Value &f)
{
    if (op == "assign") {
        assignments[static_cast<hw::GpuId>(f.getInt("consumer", 0))] =
            static_cast<hw::GpuId>(f.getInt("producer", 0));
    } else if (op == "lease") {
        ProducerState &p =
            producers[static_cast<hw::GpuId>(f.getInt("gpu", 0))];
        p.leasedBytes += static_cast<std::uint64_t>(f.getInt("bytes", 0));
        p.reclaimRequested = false;
        p.alive = true;
        p.lastHeartbeat =
            static_cast<aqua::sim::Tick>(f.getInt("now", 0));
    } else if (op == "lease_set") {
        ProducerState &p =
            producers[static_cast<hw::GpuId>(f.getInt("gpu", 0))];
        p.leasedBytes =
            std::max(p.leasedBytes,
                     static_cast<std::uint64_t>(f.getInt("bytes", 0)));
        p.alive = true;
        p.lastHeartbeat =
            static_cast<aqua::sim::Tick>(f.getInt("now", 0));
    } else if (op == "expire") {
        auto it =
            producers.find(static_cast<hw::GpuId>(f.getInt("gpu", 0)));
        if (it != producers.end()) {
            it->second.alive = false;
            it->second.reclaimRequested = true;
            it->second.reclaimUrgency = ReclaimUrgency::Urgent;
        }
    } else if (op == "reclaim") {
        auto it =
            producers.find(static_cast<hw::GpuId>(f.getInt("gpu", 0)));
        if (it != producers.end()) {
            it->second.reclaimRequested = true;
            it->second.reclaimUrgency =
                reclaimUrgencyFromName(f.getString("urgency", "urgent"));
        }
    } else if (op == "release") {
        producers.erase(static_cast<hw::GpuId>(f.getInt("gpu", 0)));
    } else if (op == "alloc" || op == "adopt") {
        TensorState t;
        t.id = static_cast<TensorId>(f.getInt("tensor", 0));
        t.consumer = static_cast<hw::GpuId>(f.getInt("consumer", 0));
        t.bytes = static_cast<std::uint64_t>(f.getInt("bytes", 0));
        t.location = locationFromJson(f, "placement", "gpu");
        tensors[t.id] = t;
        nextTensor = std::max(nextTensor, t.id + 1);
        if (t.location.placement == Placement::PeerGpu) {
            ProducerState &p = producers[t.location.gpu];
            p.usedBytes += t.bytes;
            // An adopted tensor is physically resident: the effective
            // lease covered it, whatever the journal remembered.
            if (op == "adopt")
                p.leasedBytes = std::max(p.leasedBytes, p.usedBytes);
        }
    } else if (op == "free" || op == "orphan") {
        eraseTensorLocked(static_cast<TensorId>(f.getInt("tensor", 0)));
    } else if (op == "order") {
        auto it =
            tensors.find(static_cast<TensorId>(f.getInt("tensor", 0)));
        if (it != tensors.end()) {
            Location to = locationFromJson(f, "to", "to_gpu");
            it->second.migratingTo = to;
            if (to.placement == Placement::PeerGpu)
                producers[to.gpu].usedBytes += it->second.bytes;
        }
    } else if (op == "done") {
        auto it =
            tensors.find(static_cast<TensorId>(f.getInt("tensor", 0)));
        if (it != tensors.end() && it->second.migratingTo) {
            TensorState &t = it->second;
            if (t.location.placement == Placement::PeerGpu) {
                auto pit = producers.find(t.location.gpu);
                if (pit != producers.end())
                    pit->second.usedBytes -=
                        std::min(pit->second.usedBytes, t.bytes);
            }
            t.location = *t.migratingTo;
            t.migratingTo.reset();
        }
    } else if (op == "relocate") {
        auto it =
            tensors.find(static_cast<TensorId>(f.getInt("tensor", 0)));
        if (it != tensors.end()) {
            TensorState &t = it->second;
            Location to = locationFromJson(f, "placement", "gpu");
            if (t.migratingTo &&
                t.migratingTo->placement == Placement::PeerGpu) {
                auto pit = producers.find(t.migratingTo->gpu);
                if (pit != producers.end())
                    pit->second.usedBytes -=
                        std::min(pit->second.usedBytes, t.bytes);
            }
            t.migratingTo.reset();
            if (!(t.location == to)) {
                if (t.location.placement == Placement::PeerGpu) {
                    auto pit = producers.find(t.location.gpu);
                    if (pit != producers.end())
                        pit->second.usedBytes -= std::min(
                            pit->second.usedBytes, t.bytes);
                }
                if (to.placement == Placement::PeerGpu) {
                    ProducerState &p = producers[to.gpu];
                    p.usedBytes += t.bytes;
                    p.leasedBytes =
                        std::max(p.leasedBytes, p.usedBytes);
                }
                t.location = to;
            }
        }
    } else if (op == "ttl") {
        ttl = static_cast<aqua::sim::Tick>(f.getInt("ticks", 0));
    } else if (op == "evac_batch") {
        gracefulBatch = static_cast<std::size_t>(f.getInt("n", 0));
    } else {
        panic("Coordinator::applyJournalRecord: unknown op '%s'",
              op.c_str());
    }
}

void
Coordinator::applyJournalRecord(const std::string &op,
                                const json::Value &fields)
{
    std::lock_guard<std::mutex> lock(mtx);
    applyJournalRecordLocked(op, fields);
}

Coordinator::ResyncSummary
Coordinator::resync(hw::GpuId gpu,
                    std::optional<std::uint64_t> leaseBytes,
                    const std::vector<SurvivorTensor> &held,
                    aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    ResyncSummary out;
    if (leaseBytes) {
        ProducerState &p = producers[gpu];
        out.leaseAdopted = *leaseBytes > p.leasedBytes;
        p.leasedBytes = std::max(p.leasedBytes, *leaseBytes);
        p.alive = true;
        p.lastHeartbeat = now;
        json::Value f;
        f["gpu"] = gpu;
        f["bytes"] = p.leasedBytes;
        f["now"] = static_cast<std::uint64_t>(now);
        jlog("lease_set", std::move(f));
    }
    for (const SurvivorTensor &st : held) {
        auto it = tensors.find(st.id);
        if (it == tensors.end()) {
            // The journal lost this allocation (dropped tail). The
            // survivor physically holds the bytes: adopt it.
            TensorState t;
            t.id = st.id;
            t.consumer = gpu;
            t.bytes = st.bytes;
            t.location = st.location;
            tensors[t.id] = t;
            nextTensor = std::max(nextTensor, t.id + 1);
            if (t.location.placement == Placement::PeerGpu) {
                ProducerState &p = producers[t.location.gpu];
                p.usedBytes += t.bytes;
                p.leasedBytes = std::max(p.leasedBytes, p.usedBytes);
            }
            json::Value f;
            f["tensor"] = t.id;
            f["consumer"] = gpu;
            f["bytes"] = t.bytes;
            locationToJson(f, t.location, "placement", "gpu");
            jlog("adopt", std::move(f));
            ++out.adopted;
            continue;
        }
        TensorState &t = it->second;
        bool hadMigration = t.migratingTo.has_value();
        bool moved = !(t.location == st.location);
        if (!hadMigration && !moved) {
            ++out.confirmed;
            continue;
        }
        // Survivor truth: drop any journaled in-flight migration
        // (releasing a reserved promotion destination) and put the
        // tensor where the survivor says it is.
        if (t.migratingTo &&
            t.migratingTo->placement == Placement::PeerGpu) {
            auto pit = producers.find(t.migratingTo->gpu);
            if (pit != producers.end())
                pit->second.usedBytes -=
                    std::min(pit->second.usedBytes, t.bytes);
        }
        t.migratingTo.reset();
        if (moved) {
            if (t.location.placement == Placement::PeerGpu) {
                auto pit = producers.find(t.location.gpu);
                if (pit != producers.end())
                    pit->second.usedBytes -=
                        std::min(pit->second.usedBytes, t.bytes);
            }
            if (st.location.placement == Placement::PeerGpu) {
                ProducerState &p = producers[st.location.gpu];
                p.usedBytes += t.bytes;
                p.leasedBytes = std::max(p.leasedBytes, p.usedBytes);
            }
            t.location = st.location;
            ++out.relocated;
        } else {
            ++out.confirmed;
        }
        json::Value f;
        f["tensor"] = t.id;
        locationToJson(f, t.location, "placement", "gpu");
        jlog("relocate", std::move(f));
    }
    return out;
}

Coordinator::OrphanSweep
Coordinator::sweepOrphans(const std::vector<hw::GpuId> &reporters,
                          aqua::sim::Tick now)
{
    std::lock_guard<std::mutex> lock(mtx);
    OrphanSweep out;
    auto reported = [&](hw::GpuId gpu) {
        return std::find(reporters.begin(), reporters.end(), gpu) !=
               reporters.end();
    };
    std::vector<TensorId> orphans;
    for (const auto &[id, t] : tensors)
        if (!reported(t.consumer))
            orphans.push_back(id);
    for (TensorId id : orphans) {
        out.droppedBytes += tensors[id].bytes;
        eraseTensorLocked(id);
        json::Value f;
        f["tensor"] = id;
        jlog("orphan", std::move(f));
        ++out.droppedTensors;
    }
    for (auto &[gpu, p] : producers) {
        if (reported(gpu) || !p.alive)
            continue;
        // The donor never resynced: treat its lease as dead so any
        // resident tensors evacuate as emergencies.
        p.alive = false;
        p.reclaimRequested = true;
        p.reclaimUrgency = ReclaimUrgency::Urgent;
        p.lastHeartbeat = now;
        json::Value f;
        f["gpu"] = gpu;
        jlog("expire", std::move(f));
        ++out.deadProducers;
    }
    return out;
}

std::vector<std::string>
Coordinator::auditInvariants() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::vector<std::string> violations;
    std::map<hw::GpuId, std::uint64_t> expected;
    for (const auto &[id, t] : tensors) {
        if (t.migratingTo && t.migratingTo->placement ==
                                 Placement::PeerGpu)
            expected[t.migratingTo->gpu] += t.bytes;
        if (t.location.placement != Placement::PeerGpu)
            continue;
        expected[t.location.gpu] += t.bytes;
        if (producers.find(t.location.gpu) == producers.end())
            violations.push_back(
                "tensor " + std::to_string(t.id) +
                " resides on unknown producer gpu" +
                std::to_string(t.location.gpu));
    }
    for (const auto &[gpu, p] : producers) {
        std::uint64_t want = 0;
        auto it = expected.find(gpu);
        if (it != expected.end())
            want = it->second;
        if (p.usedBytes != want)
            violations.push_back(
                "producer gpu" + std::to_string(gpu) +
                " accounting drift: used=" +
                std::to_string(p.usedBytes) +
                " resident+inbound=" + std::to_string(want));
        if (p.usedBytes > p.leasedBytes)
            violations.push_back(
                "producer gpu" + std::to_string(gpu) +
                " lease oversubscribed (double grant): used=" +
                std::to_string(p.usedBytes) +
                " leased=" + std::to_string(p.leasedBytes));
    }
    return violations;
}

} // namespace aqua::core
