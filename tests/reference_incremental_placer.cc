#include "tests/reference_incremental_placer.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aqua::placer::reference {

using aqua::sim::panic;

IncrementalPlacer::IncrementalPlacer(PlacementInput initial,
                                     RepairConfig config)
    : base(std::move(initial)), cfg(config),
      alive(base.models.size(), true),
      serverOf(base.models.size(), -1),
      load(base.numServers, 0),
      cap(base.numServers, base.gpusPerServer),
      numLive(base.models.size())
{
    if (base.numServers == 0 || base.gpusPerServer == 0)
        panic("IncrementalPlacer: empty cluster");
    fullSolve();
}

double
IncrementalPlacer::objective() const
{
    std::vector<std::size_t> liveIndex;
    PlacementInput in = liveInput(&liveIndex);
    if (in.models.empty())
        return 0.0;
    std::vector<int> assign(in.models.size());
    for (std::size_t i = 0; i < liveIndex.size(); ++i)
        assign[i] = serverOf[liveIndex[i]];
    return evaluateObjective(in, assign);
}

std::size_t
IncrementalPlacer::capacity(int server) const
{
    if (server < 0 || static_cast<std::size_t>(server) >= cap.size())
        panic("capacity: bad server %d", server);
    return cap[server];
}

PlacementInput
IncrementalPlacer::liveInput(std::vector<std::size_t> *liveIndex) const
{
    PlacementInput in;
    in.numServers = base.numServers;
    // From-scratch comparisons see the shrunken cluster: the smallest
    // per-server capacity bounds every server in the compact
    // instance. (PlacementInput has one global G; per-server caps
    // only exist incrementally.)
    in.gpusPerServer = *std::min_element(cap.begin(), cap.end());
    in.gpuMemBytes = base.gpuMemBytes;
    if (liveIndex)
        liveIndex->clear();
    for (std::size_t m = 0; m < base.models.size(); ++m) {
        if (!alive[m])
            continue;
        in.models.push_back(base.models[m]);
        if (liveIndex)
            liveIndex->push_back(m);
    }
    return in;
}

double
IncrementalPlacer::objectiveWith(const ModelToPlace &m, int s) const
{
    std::vector<double> mem(base.numServers, 0.0);
    std::vector<double> eq(base.numServers, 0.0);
    for (std::size_t i = 0; i < base.models.size(); ++i) {
        if (!alive[i] || serverOf[i] < 0)
            continue;
        mem[serverOf[i]] +=
            static_cast<double>(base.models[i].memBytes);
        eq[serverOf[i]] += base.models[i].isProducer() ? 1.0 : -1.0;
    }
    mem[s] += static_cast<double>(m.memBytes);
    eq[s] += m.isProducer() ? 1.0 : -1.0;
    double maxMem = mem[0];
    double maxEq = eq[0];
    for (std::size_t i = 1; i < base.numServers; ++i) {
        maxMem = std::max(maxMem, mem[i]);
        maxEq = std::max(maxEq, eq[i]);
    }
    return maxMem + static_cast<double>(base.gpuMemBytes) * maxEq;
}

int
IncrementalPlacer::bestServerFor(const ModelToPlace &m) const
{
    int best = -1;
    double bestObj = 0.0;
    for (std::size_t s = 0; s < base.numServers; ++s) {
        if (load[s] >= cap[s])
            continue;
        double obj = objectiveWith(m, static_cast<int>(s));
        if (best < 0 || obj < bestObj) {
            best = static_cast<int>(s);
            bestObj = obj;
        }
    }
    return best;
}

double
IncrementalPlacer::lowerBound() const
{
    double totalMem = 0.0;
    double totalEq = 0.0;
    for (std::size_t m = 0; m < base.models.size(); ++m) {
        if (!alive[m])
            continue;
        totalMem += static_cast<double>(base.models[m].memBytes);
        totalEq += base.models[m].isProducer() ? 1.0 : -1.0;
    }
    auto servers = static_cast<double>(base.numServers);
    // Both maxima are at least their per-server average; eq_s is
    // integral, so its average rounds up. No assignment — optimal or
    // not — can beat this, which is what makes it a sound quality
    // reference: a greedy placement can be exactly as drifted as the
    // repaired one and would hide the degradation.
    return totalMem / servers +
           static_cast<double>(base.gpuMemBytes) *
               std::ceil(totalEq / servers);
}

bool
IncrementalPlacer::maybeResolve()
{
    ++numRepairs;
    ++repairsSinceSolve;
    if (repairsSinceSolve >= cfg.maxRepairsBeforeSolve) {
        fullSolve();
        return true;
    }
    if (numLive == 0)
        return false;
    double bound = lowerBound();
    double slack = cfg.qualitySlack *
                   (std::abs(bound) +
                    static_cast<double>(base.gpuMemBytes));
    if (objective() > bound + slack) {
        fullSolve();
        return true;
    }
    return false;
}

void
IncrementalPlacer::fullSolve()
{
    std::vector<std::size_t> liveIndex;
    PlacementInput in = liveInput(&liveIndex);
    ++numSolves;
    repairsSinceSolve = 0;
    if (in.models.empty()) {
        std::fill(load.begin(), load.end(), 0);
        return;
    }
    opt::MilpOptions milp;
    milp.maxNodes = cfg.solveMaxNodes;
    Placement p = AquaPlacer(milp).place(in);
    if (!p.valid()) {
        // Live models exceed the shrunken uniform capacity. Keep the
        // incrementally repaired placement — it may still be feasible
        // against the true per-server caps — rather than wiping state.
        return;
    }
    std::fill(load.begin(), load.end(), 0);
    for (std::size_t i = 0; i < liveIndex.size(); ++i) {
        serverOf[liveIndex[i]] = p.server[i];
        ++load[p.server[i]];
    }
}

RepairOutcome
IncrementalPlacer::onArrival(const ModelToPlace &model)
{
    RepairOutcome out;
    int s = bestServerFor(model);
    if (s < 0) {
        out.kind = RepairOutcome::Kind::Infeasible;
        out.objective = objective();
        return out;
    }
    base.models.push_back(model);
    alive.push_back(true);
    serverOf.push_back(s);
    ++load[s];
    ++numLive;
    out.kind = maybeResolve() ? RepairOutcome::Kind::FullSolve
                              : RepairOutcome::Kind::Repair;
    out.server = out.kind == RepairOutcome::Kind::Repair ? s : -1;
    out.objective = objective();
    return out;
}

RepairOutcome
IncrementalPlacer::onDeparture(std::size_t model)
{
    RepairOutcome out;
    if (model >= base.models.size() || !alive[model])
        panic("onDeparture: model %zu not live", model);
    int s = serverOf[model];
    alive[model] = false;
    serverOf[model] = -1;
    --load[s];
    --numLive;
    // Departures go through the quality gate too: removing a
    // *consumer* raises the host's eq_s (and removes its negative
    // memBytes), so freeing a slot can degrade the max-objective.
    out.kind = maybeResolve() ? RepairOutcome::Kind::FullSolve
                              : RepairOutcome::Kind::Repair;
    out.server = out.kind == RepairOutcome::Kind::Repair ? s : -1;
    out.objective = objective();
    return out;
}

RepairOutcome
IncrementalPlacer::onGpuFailure(int server)
{
    RepairOutcome out;
    if (server < 0 ||
        static_cast<std::size_t>(server) >= base.numServers)
        panic("onGpuFailure: bad server %d", server);
    auto s = static_cast<std::size_t>(server);
    if (cap[s] == 0) {
        out.kind = RepairOutcome::Kind::Infeasible;
        out.objective = objective();
        return out;
    }
    --cap[s];
    if (load[s] <= cap[s]) {
        // Slack absorbed the failure; nothing moves.
        ++numRepairs;
        ++repairsSinceSolve;
        out.kind = RepairOutcome::Kind::Repair;
        out.server = server;
        out.objective = objective();
        return out;
    }
    // Over-subscribed: displace the cheapest (model, destination)
    // move, ties broken by lowest model then lowest destination.
    int bestModel = -1;
    int bestDst = -1;
    double bestObj = 0.0;
    for (std::size_t m = 0; m < base.models.size(); ++m) {
        if (!alive[m] || serverOf[m] != server)
            continue;
        for (std::size_t d = 0; d < base.numServers; ++d) {
            if (d == s || load[d] >= cap[d])
                continue;
            // Objective with m scanned as if it lived on d instead.
            const ModelToPlace &ghost = base.models[m];
            double obj;
            {
                std::vector<double> mem(base.numServers, 0.0);
                std::vector<double> eq(base.numServers, 0.0);
                for (std::size_t i = 0; i < base.models.size(); ++i) {
                    if (!alive[i] || serverOf[i] < 0 || i == m)
                        continue;
                    mem[serverOf[i]] += static_cast<double>(
                        base.models[i].memBytes);
                    eq[serverOf[i]] +=
                        base.models[i].isProducer() ? 1.0 : -1.0;
                }
                mem[d] += static_cast<double>(ghost.memBytes);
                eq[d] += ghost.isProducer() ? 1.0 : -1.0;
                double maxMem = mem[0];
                double maxEq = eq[0];
                for (std::size_t i = 1; i < base.numServers; ++i) {
                    maxMem = std::max(maxMem, mem[i]);
                    maxEq = std::max(maxEq, eq[i]);
                }
                obj = maxMem +
                      static_cast<double>(base.gpuMemBytes) * maxEq;
            }
            if (bestModel < 0 || obj < bestObj) {
                bestModel = static_cast<int>(m);
                bestDst = static_cast<int>(d);
                bestObj = obj;
            }
        }
    }
    if (bestModel < 0) {
        // Nowhere to displace to: undo the capacity loss is wrong
        // (the GPU is really gone); report infeasible and leave the
        // over-subscription for the caller to resolve (e.g. by
        // departing a model).
        out.kind = RepairOutcome::Kind::Infeasible;
        out.objective = objective();
        return out;
    }
    serverOf[bestModel] = bestDst;
    --load[s];
    ++load[bestDst];
    out.kind = maybeResolve() ? RepairOutcome::Kind::FullSolve
                              : RepairOutcome::Kind::Repair;
    out.server = out.kind == RepairOutcome::Kind::Repair ? server : -1;
    out.objective = objective();
    return out;
}

} // namespace aqua::placer::reference
