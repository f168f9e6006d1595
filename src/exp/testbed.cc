#include "exp/testbed.hh"

#include "cluster/registry_rest.hh"
#include "federation/federation_rest.hh"
#include "sim/logging.hh"

namespace aqua::exp {

using namespace aqua::sim;

Testbed::Testbed(std::size_t numGpus, hw::TopologyKind kind,
                 std::uint64_t seed)
    : simulation(std::make_unique<Simulation>(seed))
{
    simRef = simulation.get();
    srv = std::make_unique<hw::Server>(*simRef, numGpus,
                                       hw::a100_80g(), kind);
    restService = std::make_unique<core::CoordinatorRestService>(coord);
}

Testbed::Testbed(Simulation &sharedSim, std::size_t numGpus,
                 hw::TopologyKind kind)
    : simRef(&sharedSim)
{
    srv = std::make_unique<hw::Server>(*simRef, numGpus,
                                       hw::a100_80g(), kind);
    restService = std::make_unique<core::CoordinatorRestService>(coord);
}

std::unique_ptr<MultiServerCluster>
Testbed::makeMultiServerCluster(std::size_t nServers,
                                std::size_t gpusPerServer,
                                std::uint64_t seed,
                                hw::FabricConfig fabricConfig)
{
    return std::make_unique<MultiServerCluster>(
        nServers, gpusPerServer, seed, fabricConfig);
}

core::AquaLib &
Testbed::makeAquaLib(hw::GpuId gpu,
                     std::unique_ptr<core::Informer> informer,
                     core::AquaLibConfig config)
{
    libs.push_back(std::make_unique<core::AquaLib>(
        *srv, gpu, *restService, config, std::move(informer)));
    return *libs.back();
}

serve::DramBackend &
Testbed::makeDramBackend(hw::GpuId gpu, serve::DramBackendConfig config)
{
    auto backend =
        std::make_unique<serve::DramBackend>(*srv, gpu, config);
    serve::DramBackend &ref = *backend;
    backends.push_back(std::move(backend));
    return ref;
}

serve::SsdBackend &
Testbed::makeSsdBackend(hw::GpuId gpu)
{
    auto backend = std::make_unique<serve::SsdBackend>(*srv, gpu);
    serve::SsdBackend &ref = *backend;
    backends.push_back(std::move(backend));
    return ref;
}

serve::AquaBackend &
Testbed::makeAquaBackend(core::AquaLib &lib)
{
    auto backend = std::make_unique<serve::AquaBackend>(lib);
    serve::AquaBackend &ref = *backend;
    backends.push_back(std::move(backend));
    return ref;
}

void
Testbed::assign(hw::GpuId consumer, hw::GpuId producer)
{
    coord.assignProducer(consumer, producer);
}

cluster::PrefixRegistry &
Testbed::makePrefixRegistry()
{
    if (!registry) {
        registry = std::make_unique<cluster::PrefixRegistry>();
        registry->setAliveFn([this](hw::GpuId gpu) {
            return !srv->topology().gpuFailed(gpu);
        });
        cluster::bindClusterRoutes(restService->router(), *registry);
    }
    return *registry;
}

recovery::RecoveryManager &
Testbed::makeRecovery()
{
    if (!recoveryMgr) {
        coordJournal = std::make_unique<core::Coordinator::Journal>();
        recoveryMgr = std::make_unique<recovery::RecoveryManager>(
            *simulation, coord, *coordJournal);
        if (registry) {
            registryJournal =
                std::make_unique<cluster::PrefixRegistry::Journal>();
            recoveryMgr->attachRegistry(*registry, *registryJournal);
        }
    }
    for (; survivorsRegistered < libs.size(); ++survivorsRegistered)
        recoveryMgr->registerSurvivor(*libs[survivorsRegistered]);
    return *recoveryMgr;
}

MultiServerCluster::MultiServerCluster(std::size_t nServers,
                                       std::size_t gpusPerServer,
                                       std::uint64_t seed,
                                       hw::FabricConfig fabricConfig)
    : simulation(std::make_unique<Simulation>(seed))
{
    if (nServers < 2)
        panic("MultiServerCluster needs at least 2 servers");
    hw::TopologyKind kind = gpusPerServer > 2
                                ? hw::TopologyKind::NvSwitch
                                : hw::TopologyKind::DirectP2P;
    for (std::size_t i = 0; i < nServers; ++i)
        servers.push_back(std::make_unique<Testbed>(
            *simulation, gpusPerServer, kind));
    wire = std::make_unique<hw::Fabric>(*simulation, nServers,
                                        fabricConfig);
    for (std::size_t i = 0; i < nServers; ++i)
        wire->attachServer(i, servers[i]->server().topology());
}

void
MultiServerCluster::makeFederation(federation::DirectoryConfig base)
{
    if (!directories.empty())
        return;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        federation::DirectoryConfig cfg = base;
        cfg.serverId = static_cast<std::uint32_t>(i);
        directories.push_back(
            std::make_unique<federation::FederationDirectory>(
                *simulation, servers[i]->makePrefixRegistry(), cfg));
        federation::bindFederationRoutes(
            servers[i]->rest().router(), *directories.back());
    }
    for (std::size_t i = 0; i < servers.size(); ++i)
        for (std::size_t j = 0; j < servers.size(); ++j)
            if (i != j)
                directories[i]->addPeer(
                    static_cast<std::uint32_t>(j),
                    servers[j]->rest().router());
}

federation::FederationDirectory &
MultiServerCluster::directory(std::size_t i)
{
    if (i >= directories.size())
        panic("directory(%zu): call makeFederation() first", i);
    return *directories[i];
}

void
MultiServerCluster::startAntiEntropy(Tick until)
{
    for (auto &d : directories)
        d->startAntiEntropy(until);
}

} // namespace aqua::exp
