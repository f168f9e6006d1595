/**
 * @file
 * Chaos soak: randomized multi-fault schedules against the
 * crash-recovery stack, with continuously checked safety invariants.
 *
 * seed_robustness covers the donor-death story; this harness attacks
 * the pieces PR'd with src/recovery: the coordinator dies cold
 * (coordinator_crash) in the middle of a staged evacuation while the
 * link corrupts payloads (payload_corrupt), the SSD rots at rest
 * (ssd_bitrot), and the usual outage/drop/delay background noise
 * plays. Per seed the run is audited three ways:
 *
 *  - Global safety invariants, sampled every 10 ms of simulated time
 *    AND at the end: coordinator lease/refcount accounting consistent,
 *    no lease double-granted, every pinned registry chain homed on a
 *    live GPU (Coordinator::auditInvariants +
 *    PrefixRegistry::auditInvariants). At the end, each journal must
 *    also replay to its live service (recovery::replayDivergence).
 *  - Conservation: every corruption the hardware drew was detected at
 *    read time and repaired or recomputed — zero silent corruptions —
 *    and no tensor byte differs from the fault-free twin without a
 *    recompute record.
 *  - Recovery completeness: the crash restarts exactly once, every
 *    survivor resyncs, the donated lease and the active prefix pin
 *    survive journal replay + resync, and the evacuation still drains.
 *
 * A violating seed triggers automatic fault-plan shrinking (greedy
 * one-at-a-time removal to a locally minimal repro) and the minimal
 * plan lands in the JSON report.
 *
 * The fault-free twin runs twice: once with the full recovery stack
 * attached and once bare (no journals, no RecoveryManager). Their
 * traces must be byte-identical — the recovery machinery is inert on
 * a healthy fabric ("fault_free_identical").
 *
 * Results land in BENCH_chaos_soak.json; `--smoke` bounds the seed
 * matrix for CI.
 */

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "exp/testbed.hh"
#include "fault/fault.hh"
#include "recovery/recovery_manager.hh"
#include "recovery/replay_check.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"
#include "stats/table.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::sim;
using aqua::fault::ChaosConfig;
using aqua::fault::FaultInjector;
using aqua::fault::FaultKind;
using aqua::fault::FaultPlan;
using aqua::fault::FaultSpec;

namespace {

constexpr std::uint64_t mb = std::uint64_t(1) << 20;
constexpr std::uint64_t gb = std::uint64_t(1) << 30;

constexpr Tick horizon = msToTicks(400.0);
constexpr Tick stepPeriod = msToTicks(1.0);
constexpr std::size_t steps = horizon / stepPeriod;
constexpr std::size_t respondEvery = 4;
constexpr Tick auditPeriod = msToTicks(10.0);
constexpr Tick reclaimAt = msToTicks(150.0);
constexpr Tick crashAt = msToTicks(160.0);

constexpr std::size_t nTensors = 4;
constexpr std::uint64_t tensorBytes = 64 * mb;
constexpr std::uint64_t leaseBytes = 10 * gb;

struct SoakResult
{
    /** Timestamped invariant violations; empty = safe run. */
    std::vector<std::string> violations;
    std::vector<std::uint64_t> signatures;
    std::string trace;
    std::uint64_t tokens = 0;
    std::uint64_t tokensLost = 0;
    /** Ground truth corruption draws (hardware counters). */
    std::uint64_t drawnPayload = 0;
    std::uint64_t drawnBitrot = 0;
    /** Read-path detections and outcomes. */
    std::uint64_t detected = 0;
    std::uint64_t repaired = 0;
    recovery::RecoveryStats rec;
    fault::FaultInjectorStats inj;
};

/**
 * One soak run. @p plan null = fault-free twin; @p bare additionally
 * drops the whole recovery stack (no journals, no RecoveryManager)
 * for the is-it-inert trace comparison.
 */
SoakResult
runSoak(std::uint64_t seed, const FaultPlan *plan, bool bare)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P, seed);
    core::AquaLibConfig prodCfg;
    prodCfg.heartbeatInterval = msToTicks(5.0);
    core::AquaLib &producer = tb.makeAquaLib(1, nullptr, prodCfg);
    core::AquaLibConfig consCfg;
    // Jittered backoff decorrelates the retry storm against the
    // restarting coordinator; the stream is never drawn fault-free.
    consCfg.retryJitter = 0.25;
    consCfg.jitterSeed = seed;
    core::AquaLib &consumer = tb.makeAquaLib(0, nullptr, consCfg);

    cluster::PrefixRegistry &registry = tb.makePrefixRegistry();
    if (!bare)
        tb.makeRecovery();
    tb.assign(0, 1);

    trace::TraceLog log;
    producer.setTraceLog(&log);
    consumer.setTraceLog(&log);
    registry.setTraceLog(&log);
    if (!bare)
        tb.makeRecovery().setTraceLog(&log);

    // Two prefix chains with a live pin: chain A homed on GPU 0 with
    // a replica on 1, chain B homed on 1; GPU 1 reads A over NVLink.
    cluster::RegistryAgent agent;
    agent.setPinned = [](std::uint64_t, bool) { return true; };
    agent.promote = [](std::uint64_t) { return true; };
    registry.setAgent(0, agent);
    registry.setAgent(1, agent);
    registry.publish(0, 0xa1, 0xb1, 8, 128, 8 * mb, 0xa1 ^ 0xb1, 0);
    registry.publish(1, 0xa1, 0xb1, 8, 128, 8 * mb, 0xa1 ^ 0xb1, 0);
    registry.publish(1, 0xc2, 0xd2, 4, 64, 4 * mb, 0xc2 ^ 0xd2, 0);
    cluster::PinResult pin = registry.pin(1, 0xa1, 0xb1, 0);
    if (!pin.ok)
        panic("chaos soak: setup pin failed");
    const std::size_t pinsBefore = registry.activePins();

    tb.coordinator().setGracefulEvacBatch(1);
    producer.confirmDonate(leaseBytes);
    if (!producer.hasDonated())
        panic("chaos soak: donation failed");

    std::vector<core::TensorId> ids;
    for (std::size_t i = 0; i < nTensors; ++i) {
        auto id = consumer.allocateTensor(tensorBytes);
        if (!id)
            panic("chaos soak: initial allocation failed");
        consumer.writeTensor(*id, 4 * mb, 16);
        ids.push_back(*id);
    }

    // Setup complete: checkpoint both journals, modelling a flushed
    // steady-state snapshot. Only runtime records ride in the
    // crash-vulnerable tail.
    if (!bare) {
        tb.coordinatorJournal()->compact();
        if (tb.prefixRegistryJournal())
            tb.prefixRegistryJournal()->compact();
    }

    std::unique_ptr<FaultInjector> inj;
    if (plan) {
        inj = std::make_unique<FaultInjector>(
            tb.sim(), tb.server().topology(), tb.rest().router());
        inj->registerLib(producer);
        inj->setTraceLog(&log);
        tb.makeRecovery().wire(*inj);
        inj->arm(*plan);
    }

    SoakResult res;
    auto audit = [&](const char *when) {
        for (const std::string &v :
             tb.coordinator().auditInvariants())
            res.violations.push_back(std::string(when) +
                                     " coordinator: " + v);
        for (const std::string &v : registry.auditInvariants())
            res.violations.push_back(std::string(when) +
                                     " registry: " + v);
    };

    // The decode loop: one write per ms, respond() at iteration
    // boundaries, a graceful reclaim kicking off the staged
    // evacuation the crash will interrupt.
    Tick freeAt = 0;
    for (std::size_t step = 0; step < steps; ++step) {
        tb.sim().queue().schedule(
            static_cast<Tick>(step) * stepPeriod, [&, step] {
                if (tb.sim().now() < freeAt)
                    ++res.tokensLost;
                else
                    ++res.tokens;
                consumer.writeTensor(ids[step % ids.size()], 1 * mb,
                                     8);
                if (step % respondEvery == 0) {
                    Tick blocked = consumer.respond();
                    if (blocked > freeAt)
                        freeAt = blocked;
                }
            });
    }
    tb.sim().queue().schedule(reclaimAt, [&] {
        tb.coordinator().requestReclaim(
            1, core::ReclaimUrgency::Graceful);
    });
    for (Tick t = auditPeriod; t < horizon; t += auditPeriod) {
        tb.sim().queue().schedule(t, [&, t] {
            audit(("t=" + std::to_string(t / nsPerMs) + "ms").c_str());
        });
    }
    producer.startHeartbeats(horizon);
    tb.sim().runUntil(horizon);
    audit("end");
    // Replay equals live: each journal rebuilds its service exactly.
    if (!bare) {
        for (const std::string &v : recovery::replayDivergence(
                 tb.coordinator(), *tb.coordinatorJournal()))
            res.violations.push_back("end " + v);
        for (const std::string &v : recovery::replayDivergence(
                 registry, *tb.prefixRegistryJournal()))
            res.violations.push_back("end " + v);
    }

    for (core::TensorId id : ids)
        res.signatures.push_back(consumer.tensorSignature(id));
    res.trace = log.toJsonl();
    res.drawnPayload = tb.server().topology().payloadCorruptions();
    if (const hw::Ssd *drive = tb.server().topology().ssd())
        res.drawnBitrot = drive->bitrotCorruptions();
    res.detected = consumer.stats().corruptionsDetected +
                   producer.stats().corruptionsDetected;
    res.repaired = consumer.stats().corruptionsRepaired +
                   producer.stats().corruptionsRepaired;

    if (plan) {
        res.inj = inj->stats();
        res.rec = tb.makeRecovery().stats();
        std::size_t crashesPlanned = 0;
        for (const FaultSpec &f : plan->faults())
            if (f.kind == FaultKind::CoordinatorCrash)
                ++crashesPlanned;
        if (res.rec.crashes != crashesPlanned ||
            res.rec.restarts != crashesPlanned)
            res.violations.push_back(
                "recovery: crash/restart count mismatch (planned " +
                std::to_string(crashesPlanned) + ", crashed " +
                std::to_string(res.rec.crashes) + ", restarted " +
                std::to_string(res.rec.restarts) + ")");
        if (crashesPlanned > 0 && res.rec.survivorsResynced !=
                                      crashesPlanned * 2)
            res.violations.push_back(
                "recovery: not every survivor resynced (" +
                std::to_string(res.rec.survivorsResynced) + "/" +
                std::to_string(crashesPlanned * 2) + ")");
        if (registry.activePins() != pinsBefore)
            res.violations.push_back(
                "registry: active pins not recovered (" +
                std::to_string(registry.activePins()) + "/" +
                std::to_string(pinsBefore) + ")");
        if (tb.coordinator().producerState(1).leasedBytes !=
            leaseBytes)
            res.violations.push_back(
                "coordinator: donated lease not recovered");
        if (!tb.coordinator().reclaimComplete(1))
            res.violations.push_back(
                "coordinator: staged evacuation never drained");
        std::size_t unmatched =
            log.unmatchedPairs("fault_inject", "fault_recover",
                               "fault_id")
                .size();
        if (unmatched != 0)
            res.violations.push_back(
                "fault: " + std::to_string(unmatched) +
                " unmatched inject/recover pairs");
    }
    // Every corruption the hardware drew must have been detected at
    // a read path and then repaired or recomputed.
    std::uint64_t drawn = res.drawnPayload + res.drawnBitrot;
    if (res.detected != drawn)
        res.violations.push_back(
            "integrity: " + std::to_string(drawn - res.detected) +
            " silent corruptions (drawn " + std::to_string(drawn) +
            ", detected " + std::to_string(res.detected) + ")");
    if (res.repaired != res.detected)
        res.violations.push_back(
            "integrity: " +
            std::to_string(res.detected - res.repaired) +
            " detections without repair or recompute");
    return res;
}

/** The per-seed chaos schedule: scripted crash-mid-evacuation and
 *  corruption windows plus seeded background noise. */
FaultPlan
soakPlan(std::uint64_t seed)
{
    ChaosConfig cfg;
    cfg.horizon = horizon;
    cfg.outages = 1;
    cfg.meanOutageTime = msToTicks(2.0);
    cfg.dropWindows = 1;
    cfg.dropProbability = 0.3;
    cfg.meanDropTime = msToTicks(2.0);
    cfg.delayWindows = 1;
    cfg.meanDelayTime = msToTicks(3.0);
    cfg.bitrotWindows = 1;
    cfg.bitrotProbability = 0.2;
    FaultPlan plan = FaultPlan::random(seed, cfg);

    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = crashAt; // 10 ms into the staged evacuation
    crash.duration = msToTicks(5.0);
    crash.loseTail = static_cast<std::uint32_t>(seed % 5);
    plan.add(crash);

    FaultSpec corrupt;
    corrupt.kind = FaultKind::PayloadCorrupt;
    corrupt.at = msToTicks(140.0);
    corrupt.duration = msToTicks(100.0);
    corrupt.probability = 0.5;
    plan.add(corrupt);
    return plan;
}

/** Violations of a (seed, plan) cell, including byte-identity drift
 *  against the fault-free twin signatures. */
std::vector<std::string>
violationsOf(std::uint64_t seed, const FaultPlan &plan,
             const std::vector<std::uint64_t> &twinSigs)
{
    SoakResult r = runSoak(seed, &plan, false);
    for (std::size_t i = 0; i < r.signatures.size(); ++i)
        if (r.signatures[i] != twinSigs[i])
            r.violations.push_back(
                "integrity: tensor " + std::to_string(i) +
                " bytes differ from fault-free twin with no "
                "recompute record");
    return r.violations;
}

/**
 * Greedy ddmin-lite: repeatedly drop any single fault whose removal
 * keeps the violation alive, until the plan is locally minimal.
 */
FaultPlan
shrinkPlan(std::uint64_t seed, FaultPlan plan,
           const std::vector<std::uint64_t> &twinSigs)
{
    bool improved = true;
    while (improved && plan.size() > 1) {
        improved = false;
        for (std::size_t skip = 0; skip < plan.size(); ++skip) {
            FaultPlan candidate;
            candidate.setSeed(plan.seed());
            for (std::size_t i = 0; i < plan.size(); ++i)
                if (i != skip)
                    candidate.add(plan.faults()[i]);
            if (!violationsOf(seed, candidate, twinSigs).empty()) {
                plan = candidate;
                improved = true;
                break;
            }
        }
    }
    return plan;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    bench::banner("Chaos soak",
                  "crash recovery + KV integrity under multi-fault "
                  "schedules");

    const std::uint64_t numSeeds = smoke ? 2 : 8;
    bench::JsonReporter report("chaos_soak");
    report.set("smoke", smoke);
    report.set("seeds", static_cast<std::int64_t>(numSeeds));

    stats::Table table({"seed", "faults", "inj", "crash", "resync",
                        "corrupt", "detected", "tokens", "lost",
                        "violations", "twin"});
    json::Object cells;
    bool crashRecoveryOk = true;
    bool corruptionOk = true;
    bool twinIdentical = true;
    std::uint64_t totalDrawn = 0, totalDetected = 0;
    json::Array repros;

    for (std::uint64_t seed = 1; seed <= numSeeds; ++seed) {
        FaultPlan plan = soakPlan(seed);
        SoakResult twin = runSoak(seed, nullptr, false);
        SoakResult bareTwin = runSoak(seed, nullptr, true);
        SoakResult chaos = runSoak(seed, &plan, false);

        // The recovery stack must be inert on a healthy fabric: the
        // full-stack twin and the bare twin are bit-identical.
        bool cellTwinOk = twin.trace == bareTwin.trace &&
                          twin.signatures == bareTwin.signatures &&
                          twin.violations.empty() &&
                          bareTwin.violations.empty();
        twinIdentical = twinIdentical && cellTwinOk;

        std::vector<std::string> violations = chaos.violations;
        std::size_t sigBad = 0;
        for (std::size_t i = 0; i < chaos.signatures.size(); ++i)
            if (chaos.signatures[i] != twin.signatures[i])
                ++sigBad;
        if (sigBad > 0)
            violations.push_back(
                "integrity: " + std::to_string(sigBad) +
                " tensors differ from the fault-free twin");

        crashRecoveryOk = crashRecoveryOk && violations.empty();
        totalDrawn += chaos.drawnPayload + chaos.drawnBitrot;
        totalDetected += chaos.detected;

        table.newRow()
            .cell(static_cast<double>(seed), 0)
            .cell(static_cast<double>(plan.size()), 0)
            .cell(static_cast<double>(chaos.inj.injected), 0)
            .cell(static_cast<double>(chaos.rec.crashes), 0)
            .cell(static_cast<double>(chaos.rec.survivorsResynced), 0)
            .cell(static_cast<double>(chaos.drawnPayload +
                                      chaos.drawnBitrot),
                  0)
            .cell(static_cast<double>(chaos.detected), 0)
            .cell(static_cast<double>(chaos.tokens), 0)
            .cell(static_cast<double>(chaos.tokensLost), 0)
            .cell(static_cast<double>(violations.size()), 0)
            .cell(cellTwinOk ? "identical" : "DRIFT");

        json::Object cell;
        cell["faults"] = static_cast<std::int64_t>(plan.size());
        cell["injected"] =
            static_cast<std::int64_t>(chaos.inj.injected);
        cell["crashes"] =
            static_cast<std::int64_t>(chaos.rec.crashes);
        cell["lost_tail_records"] =
            static_cast<std::int64_t>(chaos.rec.droppedRecords);
        cell["replayed_records"] =
            static_cast<std::int64_t>(chaos.rec.replayedRecords);
        cell["survivors_resynced"] =
            static_cast<std::int64_t>(chaos.rec.survivorsResynced);
        cell["corruptions_drawn"] = static_cast<std::int64_t>(
            chaos.drawnPayload + chaos.drawnBitrot);
        cell["corruptions_detected"] =
            static_cast<std::int64_t>(chaos.detected);
        cell["corruptions_repaired"] =
            static_cast<std::int64_t>(chaos.repaired);
        cell["tokens"] = static_cast<std::int64_t>(chaos.tokens);
        cell["tokens_lost"] =
            static_cast<std::int64_t>(chaos.tokensLost);
        cell["twin_identical"] = cellTwinOk;
        json::Array viol;
        for (const std::string &v : violations)
            viol.push_back(json::Value(v));
        cell["violations"] = json::Value(std::move(viol));
        cells["seed_" + std::to_string(seed)] = std::move(cell);

        if (!violations.empty()) {
            // Shrink to a locally minimal repro for the report.
            FaultPlan minimal =
                shrinkPlan(seed, plan, twin.signatures);
            std::printf("seed %llu VIOLATES; minimal repro (%zu of "
                        "%zu faults):\n%s\n",
                        static_cast<unsigned long long>(seed),
                        minimal.size(), plan.size(),
                        minimal.toJson().dump().c_str());
            json::Value repro;
            repro["seed"] = static_cast<std::int64_t>(seed);
            repro["plan"] = minimal.toJson();
            repros.push_back(std::move(repro));
        }
    }
    bench::show(table);

    // Detection is only meaningful if the matrix actually drew
    // corruptions; the scripted window makes that near-certain.
    corruptionOk =
        totalDrawn > 0 && totalDetected == totalDrawn;

    report.set("crash_recovery_ok", crashRecoveryOk);
    report.set("corruption_detection_ok", corruptionOk);
    report.set("fault_free_identical", twinIdentical);
    report.set("corruptions_drawn",
               static_cast<std::int64_t>(totalDrawn));
    report.set("corruptions_detected",
               static_cast<std::int64_t>(totalDetected));
    report.set("cells", std::move(cells));
    if (!repros.empty())
        report.set("minimal_repros", json::Value(std::move(repros)));
    report.write();

    if (!crashRecoveryOk || !corruptionOk || !twinIdentical) {
        std::printf("CHAOS SOAK VIOLATION: crash_recovery_ok=%d "
                    "corruption_detection_ok=%d "
                    "fault_free_identical=%d\n",
                    crashRecoveryOk, corruptionOk, twinIdentical);
        return 1;
    }
    std::printf("soak clean across %llu seeds: every crash recovered "
                "by journal replay + survivor resync,\nevery drawn "
                "corruption detected and repaired, fault-free twin "
                "bit-identical.\n",
                static_cast<unsigned long long>(numSeeds));
    return 0;
}
