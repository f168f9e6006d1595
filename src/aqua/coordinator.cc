#include "aqua/coordinator.hh"

#include <algorithm>

#include "recovery/state_journal.hh"
#include "sim/logging.hh"

namespace aqua::core {

using aqua::sim::panic;

namespace {

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
    v[placementKey] = loc.placement == Placement::PeerGpu ? "peer" : "dram";
    v[gpuKey] = loc.gpu;
}

} // anonymous namespace

void
Coordinator::commitLocked(Record r)
{
    applyLocked(r);
    if (journal)
        journal->append(std::move(r));
}

void
Coordinator::assignProducer(hw::GpuId consumer, hw::GpuId producer)
{
    std::lock_guard<std::mutex> lock(mtx);
    commitLocked(Assign{consumer, producer});
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
    // An unfinished reclaim means consumers are still evacuating this
    // producer; a fresh offer would race the drain.
    auto it = producers.find(producer);
    if (it != producers.end() && it->second.reclaimRequested &&
        it->second.usedBytes > 0)
        return LeaseResult::ReclaimOutstanding;
    commitLocked(Lease{producer, bytes, now});
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
    commitLocked(Ttl{newTtl});
}

std::vector<hw::GpuId>
Coordinator::expireLeasesLocked(aqua::sim::Tick now)
{
    std::vector<hw::GpuId> expired;
    if (ttl == 0 || now == 0)
        return expired;
    for (const auto &[gpu, p] : producers) {
        if (!p.alive || now <= p.lastHeartbeat + ttl)
            continue;
        commitLocked(Expire{gpu});
        expired.push_back(gpu);
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
    // Urgency only ratchets up while a reclaim drains.
    const ProducerState &p = it->second;
    if (p.reclaimRequested && urgency == ReclaimUrgency::Graceful)
        urgency = p.reclaimUrgency;
    commitLocked(Reclaim{producer, urgency});
}

void
Coordinator::setGracefulEvacBatch(std::size_t ordersPerRespond)
{
    std::lock_guard<std::mutex> lock(mtx);
    commitLocked(EvacBatch{ordersPerRespond});
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
    commitLocked(Release{producer});
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
        }
    }
    // Fallback: host DRAM, "just like previous work" (§3). The record
    // carries the outcome: replay recreates the placement without
    // re-running the policy (producer occupancy may have changed).
    TensorId id = nextTensor;
    commitLocked(Alloc{id, consumer, bytes, loc, false});
    return Allocation{id, loc};
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
    if (!freeIfKnown(id))
        panic("Coordinator::free: unknown tensor %llu",
              static_cast<unsigned long long>(id));
}

bool
Coordinator::freeIfKnown(TensorId id)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = tensors.find(id);
    if (it == tensors.end())
        return false;
    const TensorState &t = it->second;
    if (t.migratingTo)
        panic("Coordinator::free: tensor %llu is mid-migration",
              static_cast<unsigned long long>(id));
    if (t.location.placement == Placement::PeerGpu &&
        producers.find(t.location.gpu) == producers.end())
        panic("Coordinator::free: tensor on unknown producer");
    commitLocked(Free{id});
    return true;
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
    for (const auto &[id, t] : tensors) {
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
        commitLocked(Order{id, order.to});
        if (urgency == ReclaimUrgency::Graceful)
            ++gracefulIssued;
        orders.push_back(order);
    }

    // Pass 2: promote DRAM tensors back onto the assigned producer's
    // lease while it has room.
    auto assigned = assignments.find(consumer);
    if (assigned != assignments.end()) {
        auto pit = producers.find(assigned->second);
        if (pit != producers.end() && pit->second.alive &&
            !pit->second.reclaimRequested) {
            const ProducerState &p = pit->second;
            for (const auto &[id, t] : tensors) {
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
                // The order reserves destination space immediately so
                // concurrent allocations cannot oversubscribe the lease.
                commitLocked(Order{id, order.to});
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
    const TensorState &t = it->second;
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
    if (t.location.placement == Placement::PeerGpu &&
        producers.find(t.location.gpu) == producers.end())
        panic("Coordinator::doneMoving: unknown source producer");
    commitLocked(Done{order.tensor, order.to});
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
Coordinator::attachJournal(Journal *j)
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
Coordinator::applyLocked(const Record &rec)
{
    // Return a tensor's bytes to the producer under @p loc, if any.
    auto releaseBytes = [this](const Location &loc, std::uint64_t bytes) {
        if (loc.placement != Placement::PeerGpu)
            return;
        auto pit = producers.find(loc.gpu);
        if (pit != producers.end())
            pit->second.usedBytes -= std::min(pit->second.usedBytes, bytes);
    };
    std::visit(
        recovery::Overloaded{
            [&](const Assign &r) { assignments[r.consumer] = r.producer; },
            [&](const Lease &r) {
                ProducerState &p = producers[r.gpu];
                p.leasedBytes += r.bytes;
                p.reclaimRequested = false;
                p.alive = true;
                p.lastHeartbeat = r.now;
            },
            [&](const LeaseSet &r) {
                ProducerState &p = producers[r.gpu];
                p.leasedBytes = std::max(p.leasedBytes, r.bytes);
                p.alive = true;
                p.lastHeartbeat = r.now;
            },
            [&](const Ttl &r) { ttl = r.ticks; },
            [&](const EvacBatch &r) { gracefulBatch = r.orders; },
            [&](const Expire &r) {
                auto it = producers.find(r.gpu);
                if (it == producers.end())
                    return;
                // Dead lease: the memory must come back regardless of
                // what the (unreachable) producer wanted.
                it->second.alive = false;
                it->second.reclaimRequested = true;
                it->second.reclaimUrgency = ReclaimUrgency::Urgent;
            },
            [&](const Reclaim &r) {
                auto it = producers.find(r.gpu);
                if (it == producers.end())
                    return;
                it->second.reclaimRequested = true;
                it->second.reclaimUrgency = r.urgency;
            },
            [&](const Release &r) { producers.erase(r.gpu); },
            [&](const Alloc &r) {
                tensors[r.tensor] =
                    TensorState{r.tensor, r.consumer, r.bytes, r.location,
                                std::nullopt};
                nextTensor = std::max(nextTensor, r.tensor + 1);
                if (r.location.placement != Placement::PeerGpu)
                    return;
                ProducerState &p = producers[r.location.gpu];
                p.usedBytes += r.bytes;
                if (r.adopt)
                    p.leasedBytes = std::max(p.leasedBytes, p.usedBytes);
            },
            [&](const Free &r) {
                auto it = tensors.find(r.tensor);
                if (it == tensors.end())
                    return;
                const TensorState &t = it->second;
                releaseBytes(t.location, t.bytes);
                // A reserved promotion destination holds bytes too.
                if (t.migratingTo)
                    releaseBytes(*t.migratingTo, t.bytes);
                tensors.erase(it);
            },
            [&](const Order &r) {
                auto it = tensors.find(r.tensor);
                if (it == tensors.end())
                    return;
                it->second.migratingTo = r.to;
                if (r.to.placement == Placement::PeerGpu)
                    producers[r.to.gpu].usedBytes += it->second.bytes;
            },
            [&](const Done &r) {
                auto it = tensors.find(r.tensor);
                if (it == tensors.end() || !it->second.migratingTo)
                    return;
                TensorState &t = it->second;
                // The source's lease bytes come back.
                releaseBytes(t.location, t.bytes);
                t.location = r.to;
                t.migratingTo.reset();
            },
            [&](const Relocate &r) {
                auto it = tensors.find(r.tensor);
                if (it == tensors.end())
                    return;
                TensorState &t = it->second;
                // Drop any in-flight migration, releasing a reserved
                // promotion destination.
                if (t.migratingTo)
                    releaseBytes(*t.migratingTo, t.bytes);
                t.migratingTo.reset();
                if (t.location == r.location)
                    return;
                releaseBytes(t.location, t.bytes);
                if (r.location.placement == Placement::PeerGpu) {
                    ProducerState &p = producers[r.location.gpu];
                    p.usedBytes += t.bytes;
                    p.leasedBytes = std::max(p.leasedBytes, p.usedBytes);
                }
                t.location = r.location;
            },
        },
        rec);
}

void
Coordinator::apply(const Record &r)
{
    std::lock_guard<std::mutex> lock(mtx);
    applyLocked(r);
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
        auto it = producers.find(gpu);
        out.leaseAdopted =
            *leaseBytes > (it == producers.end() ? 0 : it->second.leasedBytes);
        commitLocked(LeaseSet{gpu, *leaseBytes, now});
    }
    for (const SurvivorTensor &st : held) {
        auto it = tensors.find(st.id);
        if (it == tensors.end()) {
            // The journal lost this allocation (dropped tail). The
            // survivor physically holds the bytes: adopt it.
            commitLocked(Alloc{st.id, gpu, st.bytes, st.location, true});
            ++out.adopted;
            continue;
        }
        const TensorState &t = it->second;
        bool moved = !(t.location == st.location);
        if (moved)
            ++out.relocated;
        else
            ++out.confirmed;
        // Survivor truth: drop any journaled in-flight migration and
        // put the tensor where the survivor says it is.
        if (moved || t.migratingTo)
            commitLocked(Relocate{st.id, st.location});
    }
    return out;
}

Coordinator::OrphanSweep
Coordinator::sweepOrphans(const std::vector<hw::GpuId> &reporters)
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
        out.droppedBytes += tensors.at(id).bytes;
        commitLocked(Free{id});
        ++out.droppedTensors;
    }
    for (const auto &[gpu, p] : producers) {
        if (reported(gpu) || !p.alive)
            continue;
        // The donor never resynced: treat its lease as dead so any
        // resident tensors evacuate as emergencies.
        commitLocked(Expire{gpu});
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
