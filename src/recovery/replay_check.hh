/**
 * @file
 * Replay-equals-live check: rebuild a fresh instance from a journal
 * (snapshot plus pending tail, through recovery::replay) and compare
 * its exportState() dump with the live instance's. Each overload
 * returns what differs; empty means replay equals live.
 */

#ifndef AQUA_RECOVERY_REPLAY_CHECK_HH
#define AQUA_RECOVERY_REPLAY_CHECK_HH

#include <string>
#include <vector>

#include "aqua/coordinator.hh"
#include "cluster/prefix_registry.hh"
#include "federation/directory.hh"

namespace aqua::recovery {

/** Also requires the rebuilt coordinator's auditInvariants(). */
std::vector<std::string>
replayDivergence(const core::Coordinator &live,
                 const core::Coordinator::Journal &journal);
std::vector<std::string>
replayDivergence(const cluster::PrefixRegistry &live,
                 const cluster::PrefixRegistry::Journal &journal);
std::vector<std::string>
replayDivergence(const federation::FederationDirectory &live,
                 const federation::FederationDirectory::Journal &journal);

} // namespace aqua::recovery

#endif // AQUA_RECOVERY_REPLAY_CHECK_HH
