#include "aqua/rest.hh"

#include <utility>

#include "sim/logging.hh"

namespace aqua::core {

using aqua::sim::panic;
using aqua::sim::Tick;
using json::Value;

void
RestRouter::route(const std::string &methodAndPath, Handler handler)
{
    handlers[methodAndPath] = std::move(handler);
}

RestResponse
RestRouter::dispatch(const std::string &methodAndPath,
                     const Value &body) const
{
    Tick injectedDelay = 0;
    if (faultHook) {
        DispatchFault fate = faultHook(methodAndPath, body);
        switch (fate.fate) {
          case DispatchFault::Fate::Deliver:
            break;
          case DispatchFault::Fate::Reject: {
            RestResponse resp;
            resp.status = fate.status;
            resp.body["error"] = fate.reason;
            resp.body["injected"] = true;
            return resp;
          }
          case DispatchFault::Fate::Delay:
            injectedDelay = fate.extraLatency;
            break;
        }
    }
    auto it = handlers.find(methodAndPath);
    if (it == handlers.end()) {
        RestResponse resp;
        resp.status = RestStatus::NotFound;
        resp.body["error"] = "no such route: " + methodAndPath;
        return resp;
    }
    RestResponse resp = it->second(body);
    resp.delay += injectedDelay;
    return resp;
}

void
RestRouter::setFaultHook(FaultHook hook)
{
    if (hook && faultHook)
        panic("RestRouter::setFaultHook: a hook is already installed");
    faultHook = std::move(hook);
}

RestResponse
RestRouter::dispatchRaw(const std::string &methodAndPath,
                        const std::string &rawBody) const
{
    json::ParseResult parsed = json::parse(rawBody);
    if (!parsed.ok) {
        RestResponse resp;
        resp.status = RestStatus::BadRequest;
        resp.body["error"] = "bad json: " + parsed.error;
        return resp;
    }
    return dispatch(methodAndPath, parsed.value);
}

std::vector<std::string>
RestRouter::routes() const
{
    std::vector<std::string> out;
    out.reserve(handlers.size());
    for (const auto &[name, handler] : handlers)
        out.push_back(name);
    return out;
}

Value
orderToJson(const MigrationOrder &order)
{
    Value v;
    v["tensor"] = static_cast<std::int64_t>(order.tensor);
    v["bytes"] = static_cast<std::int64_t>(order.bytes);
    v["from"] = order.from.describe();
    v["from_gpu"] = order.from.gpu;
    v["to"] = order.to.describe();
    v["to_gpu"] = order.to.gpu;
    v["emergency"] = order.emergency;
    v["urgency"] = std::string(reclaimUrgencyName(order.urgency));
    return v;
}

MigrationOrder
orderFromJson(const Value &v)
{
    MigrationOrder order;
    order.tensor = static_cast<TensorId>(v.getInt("tensor", 0));
    order.bytes = static_cast<std::uint64_t>(v.getInt("bytes", 0));
    auto parseLoc = [&](const std::string &key,
                        const std::string &gpuKey) {
        Location loc;
        if (v.getString(key, "dram") == "dram") {
            loc.placement = Placement::HostDram;
            loc.gpu = hw::hostDramId;
        } else {
            loc.placement = Placement::PeerGpu;
            loc.gpu = static_cast<hw::GpuId>(
                v.getInt(gpuKey, hw::hostDramId));
        }
        return loc;
    };
    order.from = parseLoc("from", "from_gpu");
    order.to = parseLoc("to", "to_gpu");
    order.emergency = v.getBool("emergency", false);
    order.urgency =
        reclaimUrgencyFromName(v.getString("urgency", "urgent"));
    return order;
}

namespace {

RestResponse
okBody(Value body = Value())
{
    RestResponse resp;
    resp.status = RestStatus::Ok;
    resp.body = std::move(body);
    return resp;
}

RestResponse
badRequest(const std::string &why)
{
    RestResponse resp;
    resp.status = RestStatus::BadRequest;
    resp.body["error"] = why;
    return resp;
}

RestResponse
conflict(const std::string &why)
{
    RestResponse resp;
    resp.status = RestStatus::Conflict;
    resp.body["error"] = why;
    return resp;
}

/** The caller's clock, for lease-TTL bookkeeping; 0 when absent. */
Tick
bodyNow(const Value &req)
{
    std::int64_t now = req.getInt("now", 0);
    return now > 0 ? static_cast<Tick>(now) : 0;
}

} // anonymous namespace

CoordinatorRestService::CoordinatorRestService(Coordinator &coordinator)
    : coord(coordinator)
{
    _router.route("POST /lease", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        std::int64_t bytes = req.getInt("bytes", -1);
        if (gpu < 0 || bytes < 0)
            return badRequest("lease needs gpu and bytes");
        LeaseResult result =
            coord.lease(static_cast<hw::GpuId>(gpu),
                        static_cast<std::uint64_t>(bytes),
                        bodyNow(req));
        if (result == LeaseResult::ReclaimOutstanding)
            return conflict("lease rejected: reclaim outstanding");
        return okBody();
    });

    _router.route("POST /heartbeat", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        if (gpu < 0)
            return badRequest("heartbeat needs gpu");
        if (!coord.heartbeat(static_cast<hw::GpuId>(gpu),
                             bodyNow(req))) {
            RestResponse resp;
            resp.status = RestStatus::NotFound;
            resp.body["error"] = "heartbeat from producer with no lease";
            return resp;
        }
        return okBody();
    });

    _router.route("POST /allocate", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        std::int64_t bytes = req.getInt("bytes", -1);
        if (gpu < 0 || bytes < 0)
            return badRequest("allocate needs gpu and bytes");
        Coordinator::Allocation alloc =
            coord.allocate(static_cast<hw::GpuId>(gpu),
                           static_cast<std::uint64_t>(bytes),
                           bodyNow(req));
        Value body;
        body["tensor"] = static_cast<std::int64_t>(alloc.id);
        body["placement"] =
            alloc.location.placement == Placement::PeerGpu
                ? "peer" : "dram";
        body["peer"] = alloc.location.gpu;
        return okBody(std::move(body));
    });

    _router.route("POST /free", [this](const Value &req) {
        std::int64_t tensor = req.getInt("tensor", 0);
        if (tensor <= 0)
            return badRequest("free needs tensor");
        if (!coord.freeIfKnown(static_cast<TensorId>(tensor))) {
            RestResponse resp;
            resp.status = RestStatus::NotFound;
            resp.body["error"] = "unknown tensor";
            return resp;
        }
        return okBody();
    });

    _router.route("POST /respond", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        if (gpu < 0)
            return badRequest("respond needs gpu");
        std::vector<MigrationOrder> orders =
            coord.respond(static_cast<hw::GpuId>(gpu), bodyNow(req));
        json::Array arr;
        for (const MigrationOrder &order : orders)
            arr.push_back(orderToJson(order));
        Value body;
        body["orders"] = Value(std::move(arr));
        return okBody(std::move(body));
    });

    _router.route("POST /done_moving", [this](const Value &req) {
        coord.doneMoving(orderFromJson(req));
        return okBody();
    });

    _router.route("POST /reclaim_request", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        if (gpu < 0)
            return badRequest("reclaim_request needs gpu");
        ReclaimUrgency urgency =
            reclaimUrgencyFromName(req.getString("urgency", "urgent"));
        coord.requestReclaim(static_cast<hw::GpuId>(gpu), urgency);
        return okBody();
    });

    _router.route("GET /reclaim_status", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        if (gpu < 0)
            return badRequest("reclaim_status needs gpu");
        Value body;
        body["complete"] =
            coord.reclaimComplete(static_cast<hw::GpuId>(gpu));
        return okBody(std::move(body));
    });

    _router.route("POST /release_lease", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        if (gpu < 0)
            return badRequest("release_lease needs gpu");
        switch (coord.releaseLease(static_cast<hw::GpuId>(gpu))) {
          case ReleaseResult::Ok:
            return okBody();
          case ReleaseResult::UnknownProducer: {
            // Releasing a lease that was never taken is harmless.
            return okBody();
          }
          case ReleaseResult::StillOccupied:
            return conflict(
                "release_lease rejected: tensors still occupy lease");
        }
        return badRequest("release_lease: unreachable");
    });

    _router.route("POST /resync", [this](const Value &req) {
        std::int64_t gpu = req.getInt("gpu", hw::hostDramId);
        if (gpu < 0)
            return badRequest("resync needs gpu");
        std::optional<std::uint64_t> leaseBytes;
        if (const Value *lb = req.find("lease_bytes"))
            leaseBytes = static_cast<std::uint64_t>(lb->asInt());
        std::vector<Coordinator::SurvivorTensor> held;
        if (const Value *arr = req.find("tensors")) {
            for (const Value &e : arr->asArray()) {
                Coordinator::SurvivorTensor st;
                st.id = static_cast<TensorId>(e.getInt("id", 0));
                st.bytes =
                    static_cast<std::uint64_t>(e.getInt("bytes", 0));
                if (e.getString("placement", "dram") == "peer") {
                    st.location.placement = Placement::PeerGpu;
                    st.location.gpu = static_cast<hw::GpuId>(
                        e.getInt("gpu", hw::hostDramId));
                }
                held.push_back(st);
            }
        }
        Coordinator::ResyncSummary sum =
            coord.resync(static_cast<hw::GpuId>(gpu), leaseBytes,
                         held, bodyNow(req));
        Value body;
        body["adopted"] = static_cast<std::uint64_t>(sum.adopted);
        body["relocated"] = static_cast<std::uint64_t>(sum.relocated);
        body["confirmed"] = static_cast<std::uint64_t>(sum.confirmed);
        body["lease_adopted"] = sum.leaseAdopted;
        return okBody(std::move(body));
    });

    _router.route("POST /assign", [this](const Value &req) {
        std::int64_t consumer = req.getInt("consumer", hw::hostDramId);
        std::int64_t producer = req.getInt("producer", hw::hostDramId);
        if (consumer < 0 || producer < 0)
            return badRequest("assign needs consumer and producer");
        coord.assignProducer(static_cast<hw::GpuId>(consumer),
                             static_cast<hw::GpuId>(producer));
        return okBody();
    });
}

} // namespace aqua::core
