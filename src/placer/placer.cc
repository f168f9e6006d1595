#include "placer/placer.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "placer/stable_matching.hh"
#include "sim/logging.hh"

namespace aqua::placer {

using aqua::sim::panic;

namespace {

/** Bytes to GB, so the LP works in O(1)-magnitude numbers. */
constexpr double kScale = 1e-9;

/** Algorithm 1's objective over the models placed (-1: skipped). */
double
placedObjective(const PlacementInput &input, const std::vector<int> &server)
{
    std::vector<double> mem(input.numServers, 0.0);
    std::vector<double> eq(input.numServers, 0.0);
    for (std::size_t m = 0; m < server.size(); ++m) {
        if (server[m] < 0)
            continue;
        mem[server[m]] += static_cast<double>(input.models[m].memBytes);
        eq[server[m]] += input.models[m].isProducer() ? 1.0 : -1.0;
    }
    if (mem.empty())
        return 0.0;
    return *std::max_element(mem.begin(), mem.end()) +
           static_cast<double>(input.gpuMemBytes) *
               *std::max_element(eq.begin(), eq.end());
}

/**
 * The prior completed for a feasible instance: models keep their prior
 * server while it has room, in index order; every other model goes, in
 * index order, to the server with room that minimizes the objective of
 * the models placed so far, lowest index on ties.
 */
std::vector<int>
completePrior(const PlacementInput &input, const std::vector<int> &prior)
{
    std::vector<int> server(input.models.size(), -1);
    std::vector<std::size_t> load(input.numServers, 0);
    for (std::size_t m = 0; m < prior.size(); ++m) {
        int p = prior[m];
        if (p >= static_cast<int>(input.numServers))
            panic("AquaPlacer: prior server %d out of range", p);
        if (p >= 0 && load[p] < input.capacity(p)) {
            server[m] = p;
            ++load[p];
        }
    }
    for (std::size_t m = 0; m < server.size(); ++m) {
        if (server[m] >= 0)
            continue;
        int best = -1;
        double bestObjective = 0.0;
        for (std::size_t s = 0; s < input.numServers; ++s) {
            if (load[s] >= input.capacity(s))
                continue;
            server[m] = static_cast<int>(s);
            double objective = placedObjective(input, server);
            if (best < 0 || objective < bestObjective) {
                best = static_cast<int>(s);
                bestObjective = objective;
            }
        }
        server[m] = best;
        ++load[best];
    }
    return server;
}

/**
 * A MILP solution's per-type server counts y[t][s] as per-instance
 * servers. Servers of equal capacity are interchangeable in Algorithm
 * 1, so the solution's servers are first relabeled: each is greedily
 * matched to the prior server it shares the most instances with,
 * lowest indices on ties. Instances then stay on their prior server
 * while its count allows; the rest fill the remaining counts in index
 * order, servers ascending.
 */
std::vector<int>
decodeSolution(const PlacementInput &input, const PlacementMilp &milp,
               const std::vector<double> &x, const std::vector<int> &prior)
{
    std::size_t S = input.numServers;
    std::size_t T = milp.y.size();
    std::vector<std::vector<std::size_t>> found(
        T, std::vector<std::size_t>(S, 0));
    std::vector<std::vector<std::size_t>> before = found;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t s = 0; s < S; ++s)
            found[t][s] = static_cast<std::size_t>(
                std::llround(x[milp.y[t][s]]));
        if (std::accumulate(found[t].begin(), found[t].end(),
                            std::size_t{0}) != milp.typeMembers[t].size())
            panic("AquaPlacer: MILP counts do not match type %zu", t);
        for (int m : milp.typeMembers[t])
            if (!prior.empty() && prior[m] >= 0)
                ++before[t][prior[m]];
    }
    // label[a]: the server that the solution's server a becomes; the
    // identity when there is no prior to share instances with.
    std::vector<std::size_t> label(S, S);
    std::vector<bool> taken(S, false);
    for (std::size_t k = 0; k < S; ++k) {
        std::size_t bestA = S, bestB = S, bestShared = 0;
        for (std::size_t a = 0; a < S; ++a) {
            for (std::size_t b = 0; b < S; ++b) {
                if (label[a] != S || taken[b] ||
                    input.capacity(a) != input.capacity(b))
                    continue;
                std::size_t shared = 0;
                for (std::size_t t = 0; t < T; ++t)
                    shared += std::min(found[t][a], before[t][b]);
                if (bestA == S || shared > bestShared) {
                    bestA = a;
                    bestB = b;
                    bestShared = shared;
                }
            }
        }
        label[bestA] = bestB;
        taken[bestB] = true;
    }

    std::vector<int> server(input.models.size(), -1);
    for (std::size_t t = 0; t < T; ++t) {
        std::vector<std::size_t> count(S, 0);
        for (std::size_t a = 0; a < S; ++a)
            count[label[a]] = found[t][a];
        const std::vector<int> &members = milp.typeMembers[t];
        for (int m : members) {
            int p = prior.empty() ? -1 : prior[m];
            if (p >= 0 && count[p] > 0) {
                server[m] = p;
                --count[p];
            }
        }
        std::size_t s = 0;
        for (int m : members) {
            if (server[m] >= 0)
                continue;
            while (count[s] == 0)
                ++s;
            server[m] = static_cast<int>(s);
            --count[s];
        }
    }
    return server;
}

/** Stable matching for server @p s only. */
std::vector<Pairing>
matchWithinServer(const PlacementInput &input,
                  const std::vector<int> &server, std::size_t s)
{
    std::vector<Pairing> out;
    std::vector<int> consumers;
    std::vector<int> producers;
    for (std::size_t m = 0; m < input.models.size(); ++m) {
        if (server[m] != static_cast<int>(s))
            continue;
        if (input.models[m].isConsumer())
            consumers.push_back(static_cast<int>(m));
        else if (input.models[m].isProducer())
            producers.push_back(static_cast<int>(m));
    }
    if (consumers.empty() || producers.empty())
        return out;

    // Preferences: consumers want the largest surplus; producers
    // want the deepest deficit (the neediest consumer).
    auto surplusDesc = [&](int a, int b) {
        return input.models[a].memBytes > input.models[b].memBytes;
    };
    auto deficitDesc = [&](int a, int b) {
        return input.models[a].memBytes < input.models[b].memBytes;
    };
    std::vector<int> producersRanked = producers;
    std::sort(producersRanked.begin(), producersRanked.end(),
              surplusDesc);
    std::vector<int> consumersRanked = consumers;
    std::sort(consumersRanked.begin(), consumersRanked.end(),
              deficitDesc);

    // Local index spaces for the matcher.
    std::map<int, int> consumerIdx;
    for (std::size_t i = 0; i < consumers.size(); ++i)
        consumerIdx[consumers[i]] = static_cast<int>(i);
    std::map<int, int> producerIdx;
    for (std::size_t i = 0; i < producers.size(); ++i)
        producerIdx[producers[i]] = static_cast<int>(i);

    std::vector<std::vector<int>> consumerPrefs(consumers.size());
    for (std::size_t c = 0; c < consumers.size(); ++c) {
        for (int p : producersRanked)
            consumerPrefs[c].push_back(producerIdx[p]);
    }
    std::vector<std::vector<int>> producerPrefs(producers.size());
    for (std::size_t p = 0; p < producers.size(); ++p) {
        for (int c : consumersRanked)
            producerPrefs[p].push_back(consumerIdx[c]);
    }

    std::vector<int> match =
        stableMatch(consumerPrefs, producerPrefs, producers.size());
    for (std::size_t c = 0; c < consumers.size(); ++c) {
        if (match[c] < 0)
            continue;
        Pairing pairing;
        pairing.consumerModel = consumers[c];
        pairing.producerModel = producers[match[c]];
        pairing.server = static_cast<int>(s);
        out.push_back(pairing);
    }
    return out;
}

} // anonymous namespace

std::size_t
PlacementInput::capacity(std::size_t s) const
{
    if (lostGpus.empty())
        return gpusPerServer;
    if (lostGpus.size() != numServers)
        panic("PlacementInput: %zu lost-GPU counts for %zu servers",
              lostGpus.size(), numServers);
    return gpusPerServer - std::min(gpusPerServer, lostGpus[s]);
}

double
evaluateObjective(const PlacementInput &input,
                  const std::vector<int> &assignment)
{
    if (assignment.size() != input.models.size())
        panic("evaluateObjective: assignment size mismatch");
    for (std::size_t m = 0; m < assignment.size(); ++m) {
        int s = assignment[m];
        if (s < 0 || static_cast<std::size_t>(s) >= input.numServers)
            panic("evaluateObjective: model %zu unassigned", m);
    }
    return placedObjective(input, assignment);
}

std::vector<Pairing>
matchWithinServers(const PlacementInput &input,
                   const std::vector<int> &server)
{
    std::vector<Pairing> out;
    for (std::size_t s = 0; s < input.numServers; ++s) {
        std::vector<Pairing> one = matchWithinServer(input, server, s);
        out.insert(out.end(), one.begin(), one.end());
    }
    return out;
}

Placement
greedyPlace(const PlacementInput &input)
{
    Placement result;
    std::size_t slots = 0;
    for (std::size_t s = 0; s < input.numServers; ++s)
        slots += input.capacity(s);
    if (input.models.size() > slots)
        return result; // infeasible

    std::vector<int> consumers;
    std::vector<int> producers;
    std::vector<int> neutral;
    for (std::size_t m = 0; m < input.models.size(); ++m) {
        if (input.models[m].isConsumer())
            consumers.push_back(static_cast<int>(m));
        else if (input.models[m].isProducer())
            producers.push_back(static_cast<int>(m));
        else
            neutral.push_back(static_cast<int>(m));
    }
    // Deepest deficits first; largest surpluses first.
    std::sort(consumers.begin(), consumers.end(), [&](int a, int b) {
        return input.models[a].memBytes < input.models[b].memBytes;
    });
    std::sort(producers.begin(), producers.end(), [&](int a, int b) {
        return input.models[a].memBytes > input.models[b].memBytes;
    });

    std::vector<int> assignment(input.models.size(), -1);
    std::vector<std::size_t> load(input.numServers, 0);
    std::size_t nextServer = 0;

    auto placeOn = [&](int m, std::size_t s) {
        assignment[m] = static_cast<int>(s);
        ++load[s];
    };
    auto firstFit = [&](int m) {
        for (std::size_t s = 0; s < input.numServers; ++s) {
            if (load[s] < input.capacity(s)) {
                placeOn(m, s);
                return;
            }
        }
        panic("greedyPlace: ran out of GPU slots");
    };

    // Pair i-th neediest consumer with i-th richest producer and give
    // each pair its own server while room lasts.
    std::size_t pairs = std::min(consumers.size(), producers.size());
    for (std::size_t i = 0; i < pairs; ++i) {
        // Find a server with two free slots, scanning round-robin.
        std::size_t tries = 0;
        std::size_t s = nextServer;
        bool placed = false;
        while (tries < input.numServers) {
            if (load[s] + 2 <= input.capacity(s)) {
                placeOn(consumers[i], s);
                placeOn(producers[i], s);
                nextServer = (s + 1) % input.numServers;
                placed = true;
                break;
            }
            s = (s + 1) % input.numServers;
            ++tries;
        }
        if (!placed) {
            firstFit(consumers[i]);
            firstFit(producers[i]);
        }
    }
    for (std::size_t i = pairs; i < consumers.size(); ++i)
        firstFit(consumers[i]);
    for (std::size_t i = pairs; i < producers.size(); ++i)
        firstFit(producers[i]);
    for (int m : neutral)
        firstFit(m);

    result.server = std::move(assignment);
    result.objective = evaluateObjective(input, result.server);
    result.optimal = false;
    result.pairs = matchWithinServers(input, result.server);
    return result;
}

AquaPlacer::AquaPlacer(opt::MilpOptions milpOptions)
    : milpOpt(milpOptions)
{
}

PlacementMilp
encodePlacement(const PlacementInput &input)
{
    // Group identical models into types: y[t][s] counts instances of
    // type t on server s. This collapses instance-permutation
    // symmetry (clusters sample models with replacement, §6.1).
    std::map<std::int64_t, std::vector<int>> byMem;
    for (std::size_t m = 0; m < input.models.size(); ++m)
        byMem[input.models[m].memBytes].push_back(
            static_cast<int>(m));
    PlacementMilp milp;
    std::vector<std::int64_t> typeMem;
    std::vector<std::vector<int>> &typeMembers = milp.typeMembers;
    for (auto &[mem, members] : byMem) {
        typeMem.push_back(mem);
        typeMembers.push_back(members);
    }
    std::size_t T = typeMem.size();
    std::size_t S = input.numServers;

    opt::LinearProgram &lp = milp.lp;
    // y variables.
    std::vector<std::vector<int>> &y = milp.y;
    y.assign(T, std::vector<int>(S));
    std::vector<int> &integers = milp.integers;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t s = 0; s < S; ++s) {
            double hi = std::min<double>(
                static_cast<double>(typeMembers[t].size()),
                static_cast<double>(input.capacity(s)));
            y[t][s] = lp.addVar(0.0, hi, 0.0);
            integers.push_back(y[t][s]);
        }
    }
    // Min-max linearization variables (Eq. 5).
    double memMagnitude = 0.0;
    for (std::int64_t mem : typeMem)
        memMagnitude += std::abs(static_cast<double>(mem)) * kScale *
                        static_cast<double>(input.models.size());
    double countMagnitude =
        static_cast<double>(input.models.size()) + 1.0;
    int zMem = lp.addVar(-memMagnitude, opt::inf, 1.0);
    int zEq = lp.addVar(-countMagnitude, opt::inf,
                        static_cast<double>(input.gpuMemBytes) * kScale);

    // Eq. 1: every instance of a type lands somewhere.
    for (std::size_t t = 0; t < T; ++t) {
        std::vector<std::pair<int, double>> row;
        for (std::size_t s = 0; s < S; ++s)
            row.emplace_back(y[t][s], 1.0);
        lp.addRow(std::move(row), opt::Relation::Equal,
                  static_cast<double>(typeMembers[t].size()));
    }
    // Eq. 2: at most G models per server, less its failed GPUs.
    for (std::size_t s = 0; s < S; ++s) {
        std::vector<std::pair<int, double>> row;
        for (std::size_t t = 0; t < T; ++t)
            row.emplace_back(y[t][s], 1.0);
        lp.addRow(std::move(row), opt::Relation::LessEq,
                  static_cast<double>(input.capacity(s)));
    }
    // Eq. 3 + minimax: mem_s <= zMem.
    for (std::size_t s = 0; s < S; ++s) {
        std::vector<std::pair<int, double>> row;
        for (std::size_t t = 0; t < T; ++t) {
            row.emplace_back(
                y[t][s], static_cast<double>(typeMem[t]) * kScale);
        }
        row.emplace_back(zMem, -1.0);
        lp.addRow(std::move(row), opt::Relation::LessEq, 0.0);
    }
    // Eq. 4 + minimax: eq_s <= zEq.
    for (std::size_t s = 0; s < S; ++s) {
        std::vector<std::pair<int, double>> row;
        for (std::size_t t = 0; t < T; ++t) {
            double tm = typeMem[t] > 0 ? 1.0
                      : typeMem[t] < 0 ? -1.0 : 0.0;
            if (tm != 0.0)
                row.emplace_back(y[t][s], tm);
        }
        row.emplace_back(zEq, -1.0);
        lp.addRow(std::move(row), opt::Relation::LessEq, 0.0);
    }

    return milp;
}

Placement
AquaPlacer::place(const PlacementInput &input,
                  const std::vector<int> &prior) const
{
    if (!prior.empty() && prior.size() != input.models.size())
        panic("AquaPlacer: %zu prior servers for %zu models",
              prior.size(), input.models.size());
    Placement greedy = greedyPlace(input);
    if (!greedy.valid())
        return greedy; // infeasible instance

    // The incumbent: greedy for a cold solve; with a prior, its
    // completion unless greedy is strictly better.
    std::vector<int> incumbent = greedy.server;
    if (!prior.empty()) {
        std::vector<int> completed = completePrior(input, prior);
        if (evaluateObjective(input, completed) <= greedy.objective)
            incumbent = std::move(completed);
    }
    double incumbentObjective = evaluateObjective(input, incumbent);

    PlacementMilp encoded = encodePlacement(input);
    opt::MilpSolver solver(std::move(encoded.lp),
                           std::move(encoded.integers), milpOpt);
    solver.setIncumbentBound(incumbentObjective * kScale);
    opt::MilpResult milp = solver.solve();

    // A cold solve takes any MILP solution; a warm one only a strictly
    // better one, so nothing moves for no gain.
    bool improved = false;
    if (milp.hasSolution()) {
        std::vector<int> decoded =
            decodeSolution(input, encoded, milp.x, prior);
        improved = prior.empty() ||
                   evaluateObjective(input, decoded) < incumbentObjective;
        if (improved)
            incumbent = std::move(decoded);
    }

    Placement result;
    result.server = std::move(incumbent);
    result.objective = evaluateObjective(input, result.server);
    // Without an improvement, an exhausted search with only the seed
    // bound proves the incumbent optimal.
    result.optimal = improved ? milp.status == opt::MilpStatus::Optimal
                              : !milp.limitHit &&
                                    milp.status !=
                                        opt::MilpStatus::Infeasible;
    result.pairs = matchWithinServers(input, result.server);
    result.nodesExplored = milp.nodesExplored;
    result.lpIterations = milp.lpIterations;
    return result;
}

} // namespace aqua::placer
