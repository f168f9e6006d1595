#include "aqua/aqua_lib.hh"

#include <utility>

#include "sim/logging.hh"

namespace aqua::core {

using namespace aqua::sim;
using json::Value;

namespace {

/** FNV-1a fold of one value into a tensor content signature. */
std::uint64_t
foldSignature(std::uint64_t sig, std::uint64_t value)
{
    if (sig == 0)
        sig = 1469598103934665603ull; // FNV offset basis
    sig ^= value;
    return sig * 1099511628211ull; // FNV prime
}

/** Chunk granularity of an emergency evacuation. */
constexpr std::uint64_t emergencyChunkBytes = std::uint64_t(2) << 20;

} // anonymous namespace

AquaLib::AquaLib(hw::Server &server, hw::GpuId gpu,
                 CoordinatorRestService &service, AquaLibConfig config,
                 std::unique_ptr<Informer> informer)
    : server(server), myGpu(gpu), service(service), cfg(config),
      policy(std::move(informer)),
      engine(server, gpu, config.staging),
      jitterRng(config.jitterSeed ^
                (0x9e3779b97f4a7c15ull *
                 (static_cast<std::uint64_t>(gpu) + 1)))
{
}

AquaLib::~AquaLib()
{
    // Free local backing resources; coordinator-side state is dropped
    // with the coordinator itself at teardown.
    for (auto &[id, t] : tensors) {
        if (t.dramRegion)
            server.dram().allocator().free(*t.dramRegion);
    }
    if (leaseRegion)
        server.gpu(myGpu).hbm().free(*leaseRegion);
}

void
AquaLib::traceEvent(const char *category, Value fields)
{
    if (!tracer)
        return;
    fields["gpu"] = myGpu;
    tracer->emit(server.simulation().now(), category,
                 std::move(fields));
}

AquaLib::CallOutcome
AquaLib::tryCall(const std::string &route, Value body)
{
    CallOutcome out;
    Tick base = server.simulation().now();
    for (std::uint32_t attempt = 0;; ++attempt) {
        ++counters.restCalls;
        // Virtual send time: the caller blocks through retries without
        // advancing the queue, so later attempts carry a later clock —
        // letting them outlast a time-windowed outage and keeping
        // lease-TTL bookkeeping honest.
        body["now"] = static_cast<std::int64_t>(
            base + out.penalty + cfg.restLatency);
        out.resp = service.router().dispatch(route, body);
        out.penalty += cfg.restLatency + out.resp.delay;
        if (!out.resp.retryable())
            return out;
        if (attempt + 1 >= cfg.maxRestAttempts) {
            ++counters.restFailures;
            Value ev;
            ev["route"] = route;
            ev["attempts"] = static_cast<std::int64_t>(attempt + 1);
            ev["error"] = out.resp.body.getString("error", "");
            traceEvent("rest_give_up", std::move(ev));
            return out;
        }
        ++counters.restRetries;
        Tick backoff = cfg.restBackoffBase << attempt;
        if (cfg.retryJitter > 0.0) {
            // Scale by a seeded uniform in [1-j, 1+j). The draw is
            // skipped entirely at j == 0 so the stream — and with it
            // every jitter-free trace — stays untouched.
            double j = cfg.retryJitter;
            double scale = 1.0 - j + 2.0 * j * jitterRng.uniform();
            backoff = static_cast<Tick>(
                static_cast<double>(backoff) * scale);
            if (backoff == 0)
                backoff = 1;
        }
        out.penalty += backoff;
    }
}

Value
AquaLib::call(const std::string &route, Value body)
{
    CallOutcome out = tryCall(route, std::move(body));
    if (!out.resp.ok()) {
        panic("AquaLib(gpu%d): %s failed: %s", myGpu, route.c_str(),
              out.resp.body.dump().c_str());
    }
    return std::move(out.resp.body);
}

std::optional<aqua::mem::Region>
AquaLib::allocDram(std::uint64_t bytes)
{
    return server.dram().allocator().allocate(bytes);
}

const AquaLib::TensorRec &
AquaLib::rec(TensorId id) const
{
    auto it = tensors.find(id);
    if (it == tensors.end())
        panic("AquaLib(gpu%d): unknown tensor %llu", myGpu,
              static_cast<unsigned long long>(id));
    return it->second;
}

AquaLib::TensorRec &
AquaLib::rec(TensorId id)
{
    return const_cast<TensorRec &>(
        static_cast<const AquaLib *>(this)->rec(id));
}

std::optional<TensorId>
AquaLib::allocateTensor(std::uint64_t bytes)
{
    Value req;
    req["gpu"] = myGpu;
    req["bytes"] = static_cast<std::int64_t>(bytes);
    CallOutcome out = tryCall("POST /allocate", std::move(req));
    if (out.resp.retryable()) {
        // Coordinator unreachable even after backoff: degrade to "no
        // allocation this round" rather than crashing the engine.
        return std::nullopt;
    }
    if (!out.resp.ok()) {
        panic("AquaLib(gpu%d): /allocate failed: %s", myGpu,
              out.resp.body.dump().c_str());
    }
    Value resp = std::move(out.resp.body);

    TensorRec t;
    t.bytes = bytes;
    TensorId id = static_cast<TensorId>(resp.getInt("tensor", 0));
    if (resp.getString("placement", "dram") == "peer") {
        t.location.placement = Placement::PeerGpu;
        t.location.gpu = static_cast<hw::GpuId>(
            resp.getInt("peer", hw::hostDramId));
    } else {
        t.location.placement = Placement::HostDram;
        t.location.gpu = hw::hostDramId;
        t.dramRegion = allocDram(bytes);
        if (!t.dramRegion) {
            // Even the fallback is exhausted; undo the allocation.
            Value freeReq;
            freeReq["tensor"] = static_cast<std::int64_t>(id);
            call("POST /free", std::move(freeReq));
            return std::nullopt;
        }
    }
    tensors[id] = t;
    ++counters.tensorsAllocated;
    if (tracer) {
        Value ev;
        ev["tensor"] = static_cast<std::int64_t>(id);
        ev["bytes"] = static_cast<std::int64_t>(bytes);
        ev["location"] = t.location.describe();
        traceEvent("allocate", std::move(ev));
    }
    return id;
}

void
AquaLib::freeTensor(TensorId id)
{
    TensorRec &t = rec(id);
    if (t.dramRegion)
        server.dram().allocator().free(*t.dramRegion);
    tensors.erase(id);
    Value req;
    req["tensor"] = static_cast<std::int64_t>(id);
    CallOutcome out = tryCall("POST /free", std::move(req));
    if (out.resp.retryable()) {
        // Local backing is gone either way; the coordinator entry
        // leaks until teardown. Best effort, but audited.
        Value ev;
        ev["tensor"] = static_cast<std::int64_t>(id);
        traceEvent("free_unacked", std::move(ev));
        return;
    }
    if (out.resp.status == RestStatus::NotFound) {
        ++counters.freesAfterSweep;
        Value ev;
        ev["tensor"] = static_cast<std::int64_t>(id);
        traceEvent("free_after_sweep", std::move(ev));
        return;
    }
    if (!out.resp.ok()) {
        panic("AquaLib(gpu%d): /free failed: %s", myGpu,
              out.resp.body.dump().c_str());
    }
    if (tracer) {
        Value ev;
        ev["tensor"] = static_cast<std::int64_t>(id);
        traceEvent("free", std::move(ev));
    }
}

hw::TransferTiming
AquaLib::writeTensor(TensorId id, std::uint64_t bytes,
                     std::uint64_t nChunks, Tick earliest)
{
    TensorRec &t = rec(id);
    if (bytes > t.bytes)
        panic("AquaLib::writeTensor: write of %llu exceeds tensor "
              "size %llu", static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(t.bytes));
    // Fold the write into the content digest; migrations must carry
    // this value unchanged.
    t.signature = foldSignature(t.signature, bytes);
    t.signature = foldSignature(t.signature, nChunks);
    bool peer = t.location.placement == Placement::PeerGpu;
    if (peer)
        counters.bytesToPeer += bytes;
    else
        counters.bytesToDram += bytes;
    // Staging coalesces the scattered chunks into double-buffered wire
    // transfers.
    return engine.transferChunks(peer ? t.location.gpu : hw::hostDramId,
                                 /*outbound=*/true, bytes, nChunks,
                                 cfg.useStaging, earliest);
}

hw::TransferTiming
AquaLib::readTensor(TensorId id, std::uint64_t bytes,
                    std::uint64_t nChunks, Tick earliest)
{
    const TensorRec &t = rec(id);
    if (bytes > t.bytes)
        panic("AquaLib::readTensor: read of %llu exceeds tensor size "
              "%llu", static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(t.bytes));
    bool peer = t.location.placement == Placement::PeerGpu;
    if (peer)
        counters.bytesFromPeer += bytes;
    else
        counters.bytesFromDram += bytes;
    return engine.transferChunks(peer ? t.location.gpu : hw::hostDramId,
                                 /*outbound=*/false, bytes, nChunks,
                                 cfg.useStaging, earliest);
}

aqua::sim::Tick
AquaLib::executeOrder(const MigrationOrder &order)
{
    TensorRec &t = rec(order.tensor);
    hw::Topology &topo = server.topology();
    hw::TransferTiming timing;
    if (order.to.placement == Placement::HostDram) {
        auto region = allocDram(order.bytes);
        if (!region) {
            panic("AquaLib(gpu%d): DRAM exhausted during reclaim",
                  myGpu);
        }
        if (order.emergency) {
            // The donor is dead: race its grace window. Pull the
            // tensor to the local GPU with a staged gather (large
            // NVLink transfers), then push it down to DRAM — both
            // legs through the staging engine.
            std::uint64_t nChunks = order.bytes / emergencyChunkBytes;
            if (nChunks == 0)
                nChunks = 1;
            std::vector<CopyDesc> descs =
                StagingEngine::uniformChunks(order.bytes, nChunks);
            hw::TransferTiming pull =
                engine.transferIn(order.from.gpu, descs);
            hw::TransferTiming push = engine.transferOut(
                hw::hostDramId, descs, pull.complete);
            timing = hw::TransferTiming{pull.start, push.complete};
            ++counters.emergencyMigrations;
            Value ev;
            ev["tensor"] = static_cast<std::int64_t>(order.tensor);
            ev["bytes"] = static_cast<std::int64_t>(order.bytes);
            ev["donor"] = order.from.gpu;
            ev["complete_ns"] =
                static_cast<std::int64_t>(timing.complete);
            traceEvent("emergency_migrate", std::move(ev));
        } else {
            // Planned evacuation: producer GPU -> DRAM over the
            // producer's PCIe; the consumer blocks while releasing
            // memory (§B).
            timing = topo.copy(order.from.gpu, hw::hostDramId,
                               order.bytes);
        }
        t.dramRegion = region;
        lastEvacAt = server.simulation().now();
    } else {
        // Promotion: DRAM -> producer lease over the producer's
        // PCIe ingress.
        timing = topo.copy(hw::hostDramId, order.to.gpu, order.bytes);
        if (t.dramRegion) {
            server.dram().allocator().free(*t.dramRegion);
            t.dramRegion.reset();
        }
    }
    // End-to-end integrity: the payload's signature is verified on
    // arrival. A hit means a link flipped bits in flight
    // (payload_corrupt); the source still holds a good copy, so one
    // retransmission over the same route repairs it.
    if (topo.drawPayloadCorruption()) {
        ++counters.corruptionsDetected;
        Value det;
        det["tensor"] = static_cast<std::int64_t>(order.tensor);
        det["path"] = "migration";
        traceEvent("corruption_detected", std::move(det));
        hw::GpuId src = order.to.placement == Placement::HostDram
                            ? order.from.gpu : hw::hostDramId;
        hw::GpuId dst = order.to.placement == Placement::HostDram
                            ? hw::hostDramId : order.to.gpu;
        hw::TransferTiming redo = topo.copy(src, dst, order.bytes, {},
                                            timing.complete);
        timing.complete = redo.complete;
        ++counters.corruptionsRepaired;
        Value rep;
        rep["tensor"] = static_cast<std::int64_t>(order.tensor);
        rep["path"] = "migration";
        traceEvent("corruption_repaired", std::move(rep));
    }

    t.location = order.to;
    ++t.generation;
    ++counters.migrations;

    Value ev;
    ev["tensor"] = static_cast<std::int64_t>(order.tensor);
    ev["bytes"] = static_cast<std::int64_t>(order.bytes);
    ev["from"] = order.from.describe();
    ev["to"] = order.to.describe();
    traceEvent("migrate", std::move(ev));
    return timing.complete;
}

Tick
AquaLib::respond()
{
    Tick blocked = server.simulation().now();

    // First, re-deliver /done_moving acks a previous round could not
    // get through; until they land the coordinator keeps the tensor
    // mid-migration and will not re-order it.
    std::vector<MigrationOrder> still;
    for (const MigrationOrder &order : unackedMoves) {
        CallOutcome ack =
            tryCall("POST /done_moving", orderToJson(order));
        blocked += ack.penalty;
        if (!ack.resp.ok())
            still.push_back(order);
    }
    unackedMoves.swap(still);

    Value req;
    req["gpu"] = myGpu;
    CallOutcome out = tryCall("POST /respond", std::move(req));
    blocked += out.penalty;
    if (out.resp.retryable()) {
        // Coordinator unreachable: no orders this round; the engine
        // keeps serving from wherever tensors already are.
        return blocked;
    }
    if (!out.resp.ok()) {
        panic("AquaLib(gpu%d): /respond failed: %s", myGpu,
              out.resp.body.dump().c_str());
    }

    const Value *orders = out.resp.body.find("orders");
    if (!orders || !orders->isArray())
        return blocked;
    for (const Value &entry : orders->asArray()) {
        MigrationOrder order = orderFromJson(entry);
        Tick complete = executeOrder(order);
        if (complete > blocked)
            blocked = complete;
        CallOutcome ack =
            tryCall("POST /done_moving", orderToJson(order));
        blocked += ack.penalty;
        if (!ack.resp.ok()) {
            // The copy happened; only the ack was lost. Queue it for
            // the next respond() round.
            unackedMoves.push_back(order);
            Value ev;
            ev["tensor"] = static_cast<std::int64_t>(order.tensor);
            traceEvent("done_moving_unacked", std::move(ev));
        }
    }
    return blocked;
}

Location
AquaLib::tensorLocation(TensorId id) const
{
    return rec(id).location;
}

std::uint64_t
AquaLib::tensorGeneration(TensorId id) const
{
    return rec(id).generation;
}

std::uint64_t
AquaLib::tensorSignature(TensorId id) const
{
    return rec(id).signature;
}

void
AquaLib::heartbeat()
{
    if (failedFlag)
        return;
    ++counters.restCalls;
    Value body;
    body["gpu"] = myGpu;
    body["now"] = static_cast<std::int64_t>(
        server.simulation().now() + cfg.restLatency);
    RestResponse resp =
        service.router().dispatch("POST /heartbeat", body);
    // A dropped heartbeat is a silent miss — detecting that is the
    // whole point of the lease TTL. 404 (no lease yet) is also fine.
    if (resp.ok())
        ++counters.heartbeats;
}

void
AquaLib::scheduleHeartbeat(Tick until)
{
    Tick next = server.simulation().now() + cfg.heartbeatInterval;
    if (next > until)
        return;
    server.simulation().queue().schedule(next, [this, until] {
        heartbeat();
        scheduleHeartbeat(until);
    });
}

void
AquaLib::startHeartbeats(Tick until)
{
    scheduleHeartbeat(until);
}

bool
AquaLib::resyncWithCoordinator()
{
    if (failedFlag)
        return false;
    Value req;
    req["gpu"] = myGpu;
    if (donated && !reclaiming)
        req["lease_bytes"] = static_cast<std::int64_t>(leaseBytes);
    json::Array held;
    for (const auto &[id, t] : tensors) {
        Value e;
        e["id"] = static_cast<std::int64_t>(id);
        e["bytes"] = static_cast<std::int64_t>(t.bytes);
        e["placement"] =
            t.location.placement == Placement::PeerGpu ? "peer"
                                                       : "dram";
        e["gpu"] = t.location.gpu;
        held.push_back(std::move(e));
    }
    req["tensors"] = std::move(held);
    CallOutcome out = tryCall("POST /resync", std::move(req));
    if (!out.resp.ok())
        return false;
    // The coordinator's tensor map now reflects this survivor's
    // ground truth, including any migration whose ack was lost with
    // the crash — pending re-deliveries would only confuse it.
    unackedMoves.clear();
    ++counters.resyncs;
    Value ev;
    ev["adopted"] = out.resp.body.getInt("adopted", 0);
    ev["relocated"] = out.resp.body.getInt("relocated", 0);
    ev["confirmed"] = out.resp.body.getInt("confirmed", 0);
    ev["lease_adopted"] =
        out.resp.body.getBool("lease_adopted", false);
    traceEvent("resync", std::move(ev));
    return true;
}

std::int64_t
AquaLib::informStats(const EngineStats &stats)
{
    if (!policy || failedFlag)
        return 0;

    if (reclaiming) {
        // Poll /reclaim_status until the consumers have vacated.
        Value req;
        req["gpu"] = myGpu;
        CallOutcome poll =
            tryCall("GET /reclaim_status", std::move(req));
        if (!poll.resp.ok())
            return 0; // unreachable: poll again next round
        if (!poll.resp.body.getBool("complete", false))
            return 0;
        Value rel;
        rel["gpu"] = myGpu;
        CallOutcome release =
            tryCall("POST /release_lease", std::move(rel));
        if (release.resp.status == RestStatus::Conflict) {
            // A consumer re-occupied the lease between our status
            // poll and the release; keep reclaiming.
            return 0;
        }
        if (!release.resp.ok())
            return 0; // unreachable: retry next round
        if (leaseRegion) {
            server.gpu(myGpu).hbm().free(*leaseRegion);
            leaseRegion.reset();
        }
        std::int64_t granted = static_cast<std::int64_t>(leaseBytes);
        leaseBytes = 0;
        donated = false;
        reclaiming = false;
        Value ev;
        ev["bytes"] = granted;
        traceEvent("reclaim_complete", std::move(ev));
        return granted;
    }

    InformerDecision decision = policy->evaluate(stats, donated);
    switch (decision.action) {
      case InformerDecision::Action::None:
        return 0;
      case InformerDecision::Action::Donate:
        pendingDonate = decision.donateBytes;
        return -static_cast<std::int64_t>(decision.donateBytes);
      case InformerDecision::Action::Reclaim: {
        Value req;
        req["gpu"] = myGpu;
        req["urgency"] =
            std::string(reclaimUrgencyName(decision.urgency));
        CallOutcome out =
            tryCall("POST /reclaim_request", std::move(req));
        if (!out.resp.ok())
            return 0; // unreachable: the informer will re-decide
        reclaiming = true;
        Value ev;
        ev["urgency"] =
            std::string(reclaimUrgencyName(decision.urgency));
        traceEvent("reclaim_request", std::move(ev));
        return 0;
      }
    }
    return 0;
}

void
AquaLib::confirmDonate(std::uint64_t bytes)
{
    if (bytes == 0) {
        pendingDonate = 0;
        return;
    }
    auto region = server.gpu(myGpu).hbm().allocate(bytes);
    if (!region) {
        panic("AquaLib(gpu%d): confirmDonate(%llu) but HBM has no "
              "such free region", myGpu,
              static_cast<unsigned long long>(bytes));
    }
    leaseRegion = region;
    leaseBytes = bytes;
    donated = true;
    pendingDonate = 0;
    Value req;
    req["gpu"] = myGpu;
    req["bytes"] = static_cast<std::int64_t>(bytes);
    CallOutcome out = tryCall("POST /lease", std::move(req));
    if (!out.resp.ok()) {
        // Rejected (409: our previous reclaim is still draining) or
        // unreachable: undo the donation so the engine gets its HBM
        // back instead of stranding it unregistered.
        server.gpu(myGpu).hbm().free(*leaseRegion);
        leaseRegion.reset();
        leaseBytes = 0;
        donated = false;
        Value ev;
        ev["bytes"] = static_cast<std::int64_t>(bytes);
        ev["error"] = out.resp.body.getString("error", "");
        traceEvent("lease_rejected", std::move(ev));
        return;
    }
    Value ev;
    ev["bytes"] = static_cast<std::int64_t>(bytes);
    traceEvent("lease", std::move(ev));
}

AquaLib::PrefixPublishOutcome
AquaLib::prefixPublish(std::uint64_t key, std::uint64_t verify,
                       std::uint32_t blocks, std::uint64_t tokens,
                       std::uint64_t bytes, std::uint64_t chainSig)
{
    ++counters.prefixCalls;
    Value req;
    req["gpu"] = myGpu;
    req["key"] = static_cast<std::int64_t>(key);
    req["verify"] = static_cast<std::int64_t>(verify);
    req["blocks"] = static_cast<std::int64_t>(blocks);
    req["tokens"] = static_cast<std::int64_t>(tokens);
    req["bytes"] = static_cast<std::int64_t>(bytes);
    req["chain_sig"] = static_cast<std::int64_t>(chainSig);
    CallOutcome out = tryCall("POST /prefix/publish", std::move(req));
    PrefixPublishOutcome res;
    if (!out.resp.ok())
        return res;
    std::string role = out.resp.body.getString("role", "");
    if (role == "home")
        res.role = PrefixPublishOutcome::Role::Home;
    else if (role == "replica")
        res.role = PrefixPublishOutcome::Role::Replica;
    else if (role == "collision")
        res.role = PrefixPublishOutcome::Role::Collision;
    else
        return res;
    res.home = static_cast<hw::GpuId>(
        out.resp.body.getInt("home", hw::hostDramId));
    return res;
}

AquaLib::PrefixLookupOutcome
AquaLib::prefixLookup(const std::vector<PrefixCandidate> &candidates)
{
    ++counters.prefixCalls;
    json::Array list;
    for (const PrefixCandidate &c : candidates) {
        Value cand;
        cand["key"] = static_cast<std::int64_t>(c.key);
        cand["verify"] = static_cast<std::int64_t>(c.verify);
        cand["blocks"] = static_cast<std::int64_t>(c.blocks);
        list.push_back(std::move(cand));
    }
    Value req;
    req["gpu"] = myGpu;
    req["candidates"] = std::move(list);
    CallOutcome out = tryCall("POST /prefix/lookup", std::move(req));
    PrefixLookupOutcome res;
    if (!out.resp.ok() || !out.resp.body.getBool("found", false))
        return res;
    res.found = true;
    res.key = static_cast<std::uint64_t>(out.resp.body.getInt("key", 0));
    res.verify =
        static_cast<std::uint64_t>(out.resp.body.getInt("verify", 0));
    res.home = static_cast<hw::GpuId>(
        out.resp.body.getInt("home", hw::hostDramId));
    res.blocks = static_cast<std::uint32_t>(
        out.resp.body.getInt("blocks", 0));
    res.tokens =
        static_cast<std::uint64_t>(out.resp.body.getInt("tokens", 0));
    res.bytes =
        static_cast<std::uint64_t>(out.resp.body.getInt("bytes", 0));
    res.chainSig = static_cast<std::uint64_t>(
        out.resp.body.getInt("chain_sig", 0));
    return res;
}

AquaLib::PrefixPinOutcome
AquaLib::prefixPin(std::uint64_t key, std::uint64_t verify)
{
    ++counters.prefixCalls;
    Value req;
    req["gpu"] = myGpu;
    req["key"] = static_cast<std::int64_t>(key);
    req["verify"] = static_cast<std::int64_t>(verify);
    CallOutcome out = tryCall("POST /prefix/pin", std::move(req));
    PrefixPinOutcome res;
    if (!out.resp.ok())
        return res;
    res.ok = true;
    res.pin =
        static_cast<std::uint64_t>(out.resp.body.getInt("pin", 0));
    res.home = static_cast<hw::GpuId>(
        out.resp.body.getInt("home", hw::hostDramId));
    return res;
}

void
AquaLib::prefixUnpin(std::uint64_t pin)
{
    ++counters.prefixCalls;
    Value req;
    req["gpu"] = myGpu;
    req["pin"] = static_cast<std::int64_t>(pin);
    tryCall("POST /prefix/unpin", std::move(req));
}

void
AquaLib::prefixEvictNotify(std::uint64_t key, std::uint64_t verify)
{
    ++counters.prefixCalls;
    Value req;
    req["gpu"] = myGpu;
    req["key"] = static_cast<std::int64_t>(key);
    req["verify"] = static_cast<std::int64_t>(verify);
    tryCall("POST /prefix/evict_notify", std::move(req));
}

hw::TransferTiming
AquaLib::readPeerPrefix(hw::GpuId home, std::uint64_t bytes,
                        std::uint64_t nChunks, Tick earliest)
{
    counters.prefixRemoteReadBytes += bytes;
    counters.bytesFromPeer += bytes;
    if (cfg.useStaging) {
        return engine.transferIn(
            home, StagingEngine::uniformChunks(bytes, nChunks),
            earliest);
    }
    // Unstaged: one per-block copy after another.
    hw::Topology &topo = server.topology();
    std::uint64_t chunk = nChunks ? bytes / nChunks : bytes;
    hw::TransferTiming total{0, earliest};
    for (std::uint64_t i = 0; i < nChunks; ++i) {
        hw::TransferTiming t =
            topo.copy(home, myGpu, chunk, {}, total.complete);
        if (i == 0)
            total.start = t.start;
        total.complete = t.complete;
    }
    return total;
}

AquaLib::FederationLookupOutcome
AquaLib::federationLookup(
    const std::vector<PrefixCandidate> &candidates)
{
    ++counters.federationCalls;
    json::Array list;
    for (const PrefixCandidate &c : candidates) {
        Value cand;
        cand["key"] = static_cast<std::int64_t>(c.key);
        cand["verify"] = static_cast<std::int64_t>(c.verify);
        cand["blocks"] = static_cast<std::int64_t>(c.blocks);
        list.push_back(std::move(cand));
    }
    Value req;
    req["gpu"] = myGpu;
    req["candidates"] = std::move(list);
    CallOutcome out =
        tryCall("POST /federation/lookup", std::move(req));
    FederationLookupOutcome res;
    if (!out.resp.ok() || !out.resp.body.getBool("found", false))
        return res;
    const json::Value *entry = out.resp.body.find("entry");
    if (entry == nullptr)
        return res;
    res.found = true;
    res.chain.key =
        static_cast<std::uint64_t>(entry->getInt("key", 0));
    res.chain.verify =
        static_cast<std::uint64_t>(entry->getInt("verify", 0));
    res.chain.blocks =
        static_cast<std::uint32_t>(entry->getInt("blocks", 0));
    res.chain.tokens =
        static_cast<std::uint64_t>(entry->getInt("tokens", 0));
    res.chain.bytes =
        static_cast<std::uint64_t>(entry->getInt("bytes", 0));
    res.chain.chainSig =
        static_cast<std::uint64_t>(entry->getInt("chain_sig", 0));
    res.chain.homeServer =
        static_cast<std::uint32_t>(entry->getInt("server", 0));
    return res;
}

AquaLib::FederationFetchOutcome
AquaLib::federationFetch(const FederationChain &c)
{
    ++counters.federationCalls;
    Value req;
    req["key"] = static_cast<std::int64_t>(c.key);
    req["verify"] = static_cast<std::int64_t>(c.verify);
    req["blocks"] = static_cast<std::int64_t>(c.blocks);
    req["tokens"] = static_cast<std::int64_t>(c.tokens);
    req["bytes"] = static_cast<std::int64_t>(c.bytes);
    req["chain_sig"] = static_cast<std::int64_t>(c.chainSig);
    req["server"] = static_cast<std::int64_t>(c.homeServer);
    CallOutcome out =
        tryCall("POST /federation/fetch", std::move(req));
    FederationFetchOutcome res;
    if (!out.resp.ok()) {
        res.reason = "unreachable";
        return res;
    }
    if (!out.resp.body.getBool("ok", false)) {
        res.reason = out.resp.body.getString("reason", "refused");
        return res;
    }
    res.ok = true;
    res.ticket = static_cast<std::uint64_t>(
        out.resp.body.getInt("ticket", 0));
    res.homeGpu = static_cast<hw::GpuId>(
        out.resp.body.getInt("home_gpu", hw::hostDramId));
    res.homeServer = static_cast<std::uint32_t>(
        out.resp.body.getInt("home_server", 0));
    res.blocks = static_cast<std::uint32_t>(
        out.resp.body.getInt("blocks", 0));
    res.tokens = static_cast<std::uint64_t>(
        out.resp.body.getInt("tokens", 0));
    res.bytes = static_cast<std::uint64_t>(
        out.resp.body.getInt("bytes", 0));
    res.chainSig = static_cast<std::uint64_t>(
        out.resp.body.getInt("chain_sig", 0));
    return res;
}

bool
AquaLib::federationFetchDone(std::uint32_t homeServer,
                             std::uint64_t ticket)
{
    ++counters.federationCalls;
    Value req;
    req["home_server"] = static_cast<std::int64_t>(homeServer);
    req["ticket"] = static_cast<std::int64_t>(ticket);
    CallOutcome out =
        tryCall("POST /federation/fetch_done", std::move(req));
    return out.resp.ok() && out.resp.body.getBool("valid", false);
}

} // namespace aqua::core
