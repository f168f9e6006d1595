/**
 * @file
 * REST surface of one server's federation directory.
 *
 * Two audiences share the /federation routes on a coordinator's
 * router (see docs/PROTOCOL.md):
 *
 *  - Peer directories (cross-server): /federation/digest opens an
 *    anti-entropy round (does the peer's view of the caller match the
 *    caller's table?); /federation/advertise carries gossip and
 *    anti-entropy pushes; /federation/fetch_begin and
 *    /federation/fetch_end are the home-side admission and validation
 *    handshake around a KV stream.
 *  - The local engine's AquaLib (southbound): /federation/lookup,
 *    /federation/fetch and /federation/fetch_done proxy the
 *    consumer-side directory calls, so engine traffic rides the same
 *    coordinator fault machinery (outages, crashes, message faults)
 *    as every other control call.
 *
 * A frozen directory (coordinator crash recovery in flight) answers
 * mutating routes with a retryable 503, mirroring registry_rest.
 */

#ifndef AQUA_FEDERATION_FEDERATION_REST_HH
#define AQUA_FEDERATION_FEDERATION_REST_HH

#include "aqua/rest.hh"
#include "federation/directory.hh"

namespace aqua::federation {

/** Bind all /federation routes for @p directory on @p router. */
void bindFederationRoutes(core::RestRouter &router,
                          FederationDirectory &directory);

} // namespace aqua::federation

#endif // AQUA_FEDERATION_FEDERATION_REST_HH
