#include "placer/placer.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "placer/stable_matching.hh"
#include "sim/logging.hh"

namespace aqua::placer {

using aqua::sim::panic;

namespace {

/** Bytes to GB, so the LP works in O(1)-magnitude numbers. */
constexpr double kScale = 1e-9;

} // anonymous namespace

double
evaluateObjective(const PlacementInput &input,
                  const std::vector<int> &assignment)
{
    if (assignment.size() != input.models.size())
        panic("evaluateObjective: assignment size mismatch");
    std::vector<double> mem(input.numServers, 0.0);
    std::vector<double> eq(input.numServers, 0.0);
    for (std::size_t m = 0; m < assignment.size(); ++m) {
        int s = assignment[m];
        if (s < 0 || static_cast<std::size_t>(s) >= input.numServers)
            panic("evaluateObjective: model %zu unassigned", m);
        mem[s] += static_cast<double>(input.models[m].memBytes);
        eq[s] += input.models[m].isProducer() ? 1.0 : -1.0;
    }
    double maxMem = mem.empty() ? 0.0 : mem[0];
    double maxEq = eq.empty() ? 0.0 : eq[0];
    for (std::size_t s = 1; s < input.numServers; ++s) {
        maxMem = std::max(maxMem, mem[s]);
        maxEq = std::max(maxEq, eq[s]);
    }
    return maxMem + static_cast<double>(input.gpuMemBytes) * maxEq;
}

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
    std::size_t slots = input.numServers * input.gpusPerServer;
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
            if (load[s] < input.gpusPerServer) {
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
            if (load[s] + 2 <= input.gpusPerServer) {
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
                static_cast<double>(input.gpusPerServer));
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
    // Eq. 2: at most G models per server.
    for (std::size_t s = 0; s < S; ++s) {
        std::vector<std::pair<int, double>> row;
        for (std::size_t t = 0; t < T; ++t)
            row.emplace_back(y[t][s], 1.0);
        lp.addRow(std::move(row), opt::Relation::LessEq,
                  static_cast<double>(input.gpusPerServer));
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
AquaPlacer::place(const PlacementInput &input) const
{
    Placement greedy = greedyPlace(input);
    if (!greedy.valid())
        return greedy; // infeasible instance

    PlacementMilp encoded = encodePlacement(input);
    const std::vector<std::vector<int>> &y = encoded.y;
    const std::vector<std::vector<int>> &typeMembers =
        encoded.typeMembers;
    std::size_t T = typeMembers.size();
    std::size_t S = input.numServers;
    opt::MilpSolver solver(std::move(encoded.lp),
                           std::move(encoded.integers), milpOpt);
    solver.setIncumbentBound(greedy.objective * kScale);
    opt::MilpResult milp = solver.solve();

    Placement result;
    if (!milp.hasSolution()) {
        // The greedy seed was already (near-)optimal or limits bit;
        // fall back to it.
        result = greedy;
        // An exhausted search with only the seed bound proves the
        // greedy placement optimal.
        result.optimal = !milp.limitHit &&
                         milp.status != opt::MilpStatus::Infeasible;
    } else {
        // Decode y counts back into per-instance assignments.
        result.server.assign(input.models.size(), -1);
        for (std::size_t t = 0; t < T; ++t) {
            std::size_t member = 0;
            for (std::size_t s = 0; s < S; ++s) {
                auto count = static_cast<std::size_t>(
                    std::llround(milp.x[y[t][s]]));
                for (std::size_t k = 0; k < count; ++k) {
                    if (member >= typeMembers[t].size())
                        panic("AquaPlacer: MILP decoded more "
                              "instances than exist");
                    result.server[typeMembers[t][member++]] =
                        static_cast<int>(s);
                }
            }
            if (member != typeMembers[t].size())
                panic("AquaPlacer: MILP lost model instances");
        }
        result.objective = evaluateObjective(input, result.server);
        result.optimal = milp.status == opt::MilpStatus::Optimal;
        result.pairs = matchWithinServers(input, result.server);
    }
    result.nodesExplored = milp.nodesExplored;
    result.lpIterations = milp.lpIterations;
    return result;
}

} // namespace aqua::placer
