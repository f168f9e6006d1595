#include "federation/federation_rest.hh"

namespace aqua::federation {

using core::RestResponse;
using core::RestStatus;

namespace {

std::uint64_t
asU64(const json::Value &v, const char *field)
{
    return static_cast<std::uint64_t>(v.getInt(field, 0));
}

RestResponse
okBody(json::Object body)
{
    RestResponse r;
    r.body = json::Value(std::move(body));
    return r;
}

/** Frozen directory (coordinator crash recovery in flight): fail
 *  retryably, like a registry resync. */
RestResponse
resyncing()
{
    RestResponse r;
    r.status = RestStatus::ServiceUnavailable;
    json::Object out;
    out["error"] = "federation directory resyncing after restart";
    r.body = json::Value(std::move(out));
    return r;
}

json::Object
grantBody(const FetchGrant &g)
{
    json::Object out;
    out["ok"] = g.ok;
    if (!g.ok) {
        out["reason"] = g.reason;
        return out;
    }
    out["ticket"] = static_cast<std::int64_t>(g.ticket);
    out["home_gpu"] = g.homeGpu;
    out["home_server"] = static_cast<std::int64_t>(g.homeServer);
    out["blocks"] = static_cast<std::int64_t>(g.blocks);
    out["tokens"] = static_cast<std::int64_t>(g.tokens);
    out["bytes"] = static_cast<std::int64_t>(g.bytes);
    out["chain_sig"] = static_cast<std::int64_t>(g.chainSig);
    return out;
}

} // anonymous namespace

void
bindFederationRoutes(core::RestRouter &router,
                     FederationDirectory &directory)
{
    //
    // Peer-facing: gossip and the fetch handshake.
    //

    router.route(
        "POST /federation/advertise",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            directory.applyAdvert(
                FederationDirectory::advertFromJson(body));
            return okBody({});
        });

    router.route(
        "POST /federation/digest",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            json::Object out;
            out["match"] =
                directory.remoteDigest(static_cast<std::uint32_t>(
                    body.getInt("server", 0))) ==
                asU64(body, "digest");
            return okBody(std::move(out));
        });

    router.route(
        "POST /federation/fetch_begin",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            FetchGrant g = directory.fetchBegin(
                asU64(body, "key"), asU64(body, "verify"),
                static_cast<std::uint32_t>(
                    body.getInt("consumer_server", 0)));
            return okBody(grantBody(g));
        });

    router.route(
        "POST /federation/fetch_end",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            json::Object out;
            out["valid"] = directory.fetchEnd(asU64(body, "ticket"));
            return okBody(std::move(out));
        });

    //
    // Engine-facing (AquaLib southbound): consumer-side proxies so
    // engine calls ride the coordinator fault machinery.
    //

    router.route(
        "POST /federation/lookup",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            std::vector<cluster::CandidateKey> candidates;
            if (const json::Value *list = body.find("candidates")) {
                for (const json::Value &c : list->asArray()) {
                    cluster::CandidateKey k;
                    k.key = asU64(c, "key");
                    k.verify = asU64(c, "verify");
                    k.blocks = static_cast<std::uint32_t>(
                        c.getInt("blocks", 0));
                    candidates.push_back(k);
                }
            }
            FederationLookup res = directory.lookup(candidates);
            json::Object out;
            out["found"] = res.found;
            if (res.found)
                out["entry"] = FederationDirectory::advertToJson(
                    res.entry);
            return okBody(std::move(out));
        });

    router.route(
        "POST /federation/fetch",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            FetchGrant g = directory.requestFetch(
                FederationDirectory::advertFromJson(body));
            return okBody(grantBody(g));
        });

    router.route(
        "POST /federation/fetch_done",
        [&directory](const json::Value &body) {
            if (directory.frozen())
                return resyncing();
            json::Object out;
            out["valid"] = directory.finishFetch(
                static_cast<std::uint32_t>(
                    body.getInt("home_server", 0)),
                asU64(body, "ticket"));
            return okBody(std::move(out));
        });
}

} // namespace aqua::federation
