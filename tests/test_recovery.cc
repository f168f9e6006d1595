/**
 * @file
 * Tests for the crash-recovery subsystem: StateJournal mechanics,
 * coordinator journal replay and survivor resync, registry replay and
 * Harvest-style rehoming, federation-directory recovery, the
 * replay-equals-live check after every journaled run, the
 * frozen-registry retryable-503 contract,
 * the coordinator_crash / payload_corrupt / ssd_bitrot fault kinds,
 * seeded retry-backoff jitter, and the emergency-evacuation ×
 * ssd_fail overlap invariant.
 */

#include <gtest/gtest.h>

#include "exp/testbed.hh"
#include "fault/fault.hh"
#include "federation/directory.hh"
#include "recovery/recovery_manager.hh"
#include "recovery/state_journal.hh"
#include "tests/replay_equals_live.hh"
#include "trace/trace.hh"

using namespace aqua;
using namespace aqua::sim;
using namespace aqua::core;
using namespace aqua::cluster;
using namespace aqua::fault;
using namespace aqua::recovery;

namespace {

constexpr std::uint64_t mb = std::uint64_t(1) << 20;
constexpr std::uint64_t gb = std::uint64_t(1) << 30;

/** The journal mechanics' record type: just an op tag. */
struct TestRecord
{
    std::string op;
};

PublishResult
pub(PrefixRegistry &reg, hw::GpuId gpu, std::uint64_t key,
    std::uint64_t verify, Tick now = 0, std::uint32_t blocks = 4)
{
    return reg.publish(gpu, key, verify, blocks,
                       std::uint64_t(blocks) * 16, 1 << 20,
                       key ^ verify, now);
}

} // anonymous namespace

//
// StateJournal mechanics.
//

TEST(StateJournal, AppendCompactDropTail)
{
    StateJournal<TestRecord> j;
    j.append({"op_a"});
    j.append({"op_b"});
    EXPECT_EQ(j.pending().size(), 2u);
    EXPECT_FALSE(j.snapshot());

    // No provider: compact is a no-op, the tail keeps growing.
    j.compact();
    EXPECT_EQ(j.pending().size(), 2u);

    json::Value snapState;
    snapState["state"] = std::string("folded");
    j.setSnapshotProvider([&] { return snapState; });
    j.compact();
    EXPECT_TRUE(j.snapshot());
    EXPECT_TRUE(j.pending().empty());
    EXPECT_EQ(j.stats().compactions, 1u);
    EXPECT_EQ(j.stats().compactedRecords, 2u);

    j.append({"op_c"});
    j.append({"op_d"});
    j.dropTail(1); // lose the newest unflushed record
    ASSERT_EQ(j.pending().size(), 1u);
    EXPECT_EQ(j.pending()[0].op, "op_c");
    EXPECT_EQ(j.stats().droppedRecords, 1u);
    j.dropTail(100); // clamped
    EXPECT_TRUE(j.pending().empty());
}

TEST(StateJournal, AutoCompactsAtThreshold)
{
    StateJournalConfig cfg;
    cfg.compactEvery = 4;
    StateJournal<TestRecord> j(cfg);
    int exports = 0;
    j.setSnapshotProvider([&] {
        ++exports;
        return json::Value();
    });
    for (int i = 0; i < 10; ++i)
        j.append({"op"});
    // Compactions at the 4th and 8th appends; 2 records pending.
    EXPECT_EQ(exports, 2);
    EXPECT_EQ(j.pending().size(), 2u);
}

//
// Coordinator journal replay.
//

TEST(CoordinatorRecovery, ReplayRebuildsIdenticalState)
{
    Coordinator live;
    Coordinator::Journal j;
    live.attachJournal(&j);

    live.setLeaseTtl(msToTicks(20.0));
    live.assignProducer(0, 1);
    live.lease(1, 10 * gb, 0);
    auto a = live.allocate(0, gb);
    auto b = live.allocate(0, 2 * gb);
    live.free(b.id);
    live.requestReclaim(1);
    auto orders = live.respond(0);
    ASSERT_EQ(orders.size(), 1u);
    live.doneMoving(orders[0]);

    Coordinator cold;
    replay(cold, j);
    EXPECT_EQ(cold.exportState().dump(), live.exportState().dump());
    EXPECT_TRUE(cold.auditInvariants().empty());
    EXPECT_TRUE(replayEqualsLive(live, j));
    (void)a;
}

TEST(CoordinatorRecovery, SnapshotCompactionPreservesReplay)
{
    Coordinator live;
    StateJournalConfig cfg;
    cfg.compactEvery = 3; // force mid-run compactions
    Coordinator::Journal j(cfg);
    live.attachJournal(&j);

    live.assignProducer(0, 1);
    live.lease(1, 10 * gb, 0);
    for (int i = 0; i < 5; ++i)
        live.allocate(0, gb);
    EXPECT_GE(j.stats().compactions, 1u);

    Coordinator cold;
    replay(cold, j);
    EXPECT_EQ(cold.exportState().dump(), live.exportState().dump());
    EXPECT_TRUE(replayEqualsLive(live, j));
}

TEST(CoordinatorRecovery, SweepExpiryReplaysToTheLiveState)
{
    // The orphan sweep's expiry and TTL expiry share one record and
    // one apply: a donor swept dead keeps the heartbeat it last sent.
    Coordinator live;
    Coordinator::Journal j;
    live.attachJournal(&j);
    live.lease(1, 10 * gb, 5);
    live.allocate(0, gb);
    Coordinator::OrphanSweep sweep = live.sweepOrphans({0});
    EXPECT_EQ(sweep.deadProducers, 1u);
    EXPECT_FALSE(live.leaseAlive(1));
    EXPECT_EQ(live.producerState(1).lastHeartbeat, 5u);

    // Compared unmasked: hb and alive included.
    Coordinator cold;
    replay(cold, j);
    EXPECT_EQ(cold.exportState().dump(), live.exportState().dump());
    EXPECT_TRUE(replayEqualsLive(live, j));
}

TEST(CoordinatorRecovery, LostTailIsRepairedBySurvivorResync)
{
    Coordinator live;
    Coordinator::Journal j;
    live.attachJournal(&j);
    live.assignProducer(0, 1);
    live.lease(1, 10 * gb, 0);
    auto kept = live.allocate(0, gb);
    auto lost = live.allocate(0, 2 * gb);
    ASSERT_EQ(lost.location.placement, Placement::PeerGpu);

    EXPECT_TRUE(replayEqualsLive(live, j));

    // The crash loses the newest record (the second allocation), and
    // the replay check sees the journal fall behind the live state.
    j.dropTail(1);
    EXPECT_FALSE(replayDivergence(live, j).empty());
    Coordinator cold;
    replay(cold, j);
    EXPECT_EQ(cold.liveTensors(), 1u);
    EXPECT_EQ(cold.bytesOnProducers(), gb);

    // The survivor re-reports both tensors; the lost one is adopted
    // at its survivor-believed location and accounting is restored.
    std::vector<Coordinator::SurvivorTensor> report;
    report.push_back({kept.id, gb, kept.location});
    report.push_back({lost.id, 2 * gb, lost.location});
    Coordinator::ResyncSummary sum = cold.resync(0, std::nullopt,
                                                 report, 0);
    EXPECT_EQ(sum.adopted, 1u);
    EXPECT_EQ(sum.confirmed, 1u);
    EXPECT_EQ(cold.liveTensors(), 2u);
    EXPECT_EQ(cold.bytesOnProducers(), 3 * gb);
    EXPECT_TRUE(cold.auditInvariants().empty());

    // Fresh allocations must not collide with adopted ids.
    auto fresh = cold.allocate(0, mb);
    EXPECT_NE(fresh.id, kept.id);
    EXPECT_NE(fresh.id, lost.id);
}

TEST(CoordinatorRecovery, SweepOrphansDropsSilentConsumers)
{
    Coordinator live;
    Coordinator::Journal j;
    live.attachJournal(&j);
    live.assignProducer(0, 1);
    live.assignProducer(2, 1);
    live.lease(1, 10 * gb, 0);
    live.allocate(0, gb);
    live.allocate(2, 2 * gb);
    EXPECT_TRUE(replayEqualsLive(live, j));

    Coordinator cold;
    replay(cold, j);
    // Only GPU 0 reports back; GPU 2's tensors are orphans.
    Coordinator::OrphanSweep sweep = cold.sweepOrphans({0, 1});
    EXPECT_EQ(sweep.droppedTensors, 1u);
    EXPECT_EQ(sweep.droppedBytes, 2 * gb);
    EXPECT_TRUE(cold.auditInvariants().empty());
    // The producer's accounting shed the orphan's bytes.
    EXPECT_EQ(cold.producerState(1).usedBytes, gb);
}

TEST(CoordinatorRecovery, DuplicateDoneMovingAckIsAbsorbed)
{
    Coordinator c;
    c.assignProducer(0, 1);
    c.lease(1, 10 * gb, 0);
    auto alloc = c.allocate(0, gb);
    c.requestReclaim(1);
    auto orders = c.respond(0);
    ASSERT_EQ(orders.size(), 1u);
    c.doneMoving(orders[0]);
    // A consumer whose ack delivery "failed" re-sends after the
    // coordinator already applied it: absorbed, not a panic.
    c.doneMoving(orders[0]);
    EXPECT_EQ(c.tensorLocation(alloc.id).placement,
              Placement::HostDram);
    EXPECT_TRUE(c.auditInvariants().empty());
}

//
// Registry journal replay and resync.
//

TEST(RegistryRecovery, ReplayRebuildsIdenticalState)
{
    PrefixRegistry live;
    PrefixRegistry::Journal j;
    live.attachJournal(&j);

    pub(live, 0, 0xa1, 0xb1);
    pub(live, 1, 0xa1, 0xb1); // replica
    pub(live, 1, 0xc2, 0xd2);
    RegistryAgent agent;
    agent.setPinned = [](std::uint64_t, bool) { return true; };
    agent.promote = [](std::uint64_t) { return true; };
    live.setAgent(0, agent);
    PinResult pin = live.pin(1, 0xa1, 0xb1, 0);
    ASSERT_TRUE(pin.ok);
    live.evictNotify(1, 0xc2, 0xd2, 0); // invalidated

    PrefixRegistry cold;
    replay(cold, j);
    EXPECT_EQ(cold.exportState().dump(), live.exportState().dump());
    EXPECT_EQ(cold.homeOf(0xa1), 0);
    EXPECT_EQ(cold.activePins(), 1u);

    // Pin ids allocated post-replay must not collide with replayed
    // ones.
    cold.setAgent(0, agent);
    PinResult again = cold.pin(1, 0xa1, 0xb1, 0);
    ASSERT_TRUE(again.ok);
    EXPECT_NE(again.pin, pin.pin);
    EXPECT_TRUE(replayEqualsLive(live, j));
}

TEST(RegistryRecovery, ResyncPromotesOrInvalidatesOrphanedHomes)
{
    PrefixRegistry reg;
    PrefixRegistry::Journal j;
    reg.attachJournal(&j);

    // Chain A homed on GPU 0 with a replica on 1; chain B homed on 0
    // with no replica. GPU 0 dies with the coordinator crash.
    pub(reg, 0, 0xa1, 0xb1);
    pub(reg, 1, 0xa1, 0xb1);
    pub(reg, 0, 0xc2, 0xd2);

    RegistryAgent live;
    live.setPinned = [](std::uint64_t, bool) { return true; };
    live.promote = [](std::uint64_t) { return true; };
    reg.setAgent(1, live); // only GPU 1 survives
    reg.setAliveFn([](hw::GpuId gpu) { return gpu == 1; });

    EXPECT_TRUE(replayEqualsLive(reg, j));

    PrefixRegistry cold;
    replay(cold, j);
    cold.setAgent(1, live);
    cold.setAliveFn([](hw::GpuId gpu) { return gpu == 1; });

    PrefixRegistry::ResyncSummary sum = cold.resyncSurvivors(0);
    EXPECT_EQ(sum.rehomed, 1u);     // A: replica on 1 promoted
    EXPECT_EQ(sum.invalidated, 1u); // B: no surviving copy
    EXPECT_EQ(cold.homeOf(0xa1), 1);
    EXPECT_EQ(cold.homeOf(0xc2), hw::hostDramId);
    EXPECT_TRUE(cold.auditInvariants().empty());
}

TEST(RegistryRecovery, FrozenRegistryRejectsMutationsRetryably)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    reg.setFrozen(true);

    json::Value body;
    body["gpu"] = 0;
    body["key"] = std::int64_t(0xa1);
    body["verify"] = std::int64_t(0xb1);
    RestResponse r =
        tb.rest().router().dispatch("POST /prefix/evict_notify", body);
    EXPECT_EQ(r.status, RestStatus::ServiceUnavailable);
    EXPECT_TRUE(r.retryable());
    // Lookups stay readable while frozen.
    json::Value lk;
    lk["gpu"] = 1;
    EXPECT_TRUE(tb.rest()
                    .router()
                    .dispatch("POST /prefix/lookup", lk)
                    .ok());

    reg.setFrozen(false);
    EXPECT_TRUE(tb.rest()
                    .router()
                    .dispatch("POST /prefix/evict_notify", body)
                    .ok());
}

//
// New fault kinds.
//

TEST(FaultPlanRecovery, NewKindsJsonRoundTrip)
{
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = msToTicks(10.0);
    crash.duration = msToTicks(5.0);
    crash.loseTail = 3;
    plan.add(crash);
    FaultSpec corrupt;
    corrupt.kind = FaultKind::PayloadCorrupt;
    corrupt.at = msToTicks(20.0);
    corrupt.duration = msToTicks(2.0);
    corrupt.probability = 0.25;
    plan.add(corrupt);
    FaultSpec rot;
    rot.kind = FaultKind::SsdBitrot;
    rot.at = msToTicks(30.0);
    rot.duration = msToTicks(2.0);
    rot.probability = 0.5;
    plan.add(rot);

    FaultPlanParse parsed = FaultPlan::parse(plan.toJson().dump());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    FaultPlan back = FaultPlan::fromParse(parsed);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.faults()[0].kind, FaultKind::CoordinatorCrash);
    EXPECT_EQ(back.faults()[0].loseTail, 3u);
    EXPECT_EQ(back.faults()[1].kind, FaultKind::PayloadCorrupt);
    EXPECT_DOUBLE_EQ(back.faults()[1].probability, 0.25);
    EXPECT_EQ(back.faults()[2].kind, FaultKind::SsdBitrot);
    EXPECT_EQ(back.toJson().dump(), plan.toJson().dump());

    // A crash that never restarts is invalid (that's an outage).
    EXPECT_FALSE(FaultPlan::parse(R"({"faults": [{"kind":
        "coordinator_crash", "at_ns": 5}]})")
                     .ok);
}

TEST(FaultPlanRecovery, ChaosConfigGeneratesNewKindsDeterministically)
{
    ChaosConfig cfg;
    cfg.crashes = 2;
    cfg.crashLoseTail = 4;
    cfg.corruptWindows = 1;
    cfg.bitrotWindows = 1;
    FaultPlan a = FaultPlan::random(42, cfg);
    FaultPlan b = FaultPlan::random(42, cfg);
    EXPECT_EQ(a.toJson().dump(), b.toJson().dump());
    std::size_t crashes = 0;
    for (const FaultSpec &f : a.faults()) {
        if (f.kind == FaultKind::CoordinatorCrash) {
            ++crashes;
            EXPECT_GT(f.duration, 0u);
            EXPECT_LE(f.loseTail, 4u);
        }
    }
    EXPECT_EQ(crashes, 2u);
}

TEST(FaultInjectorRecovery, CrashWindowRejectsAndHooksFire)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLib &consumer = tb.makeAquaLib(0);
    tb.assign(0, 1);
    tb.coordinator().lease(1, 10 * gb, 0);

    FaultInjector inj(tb.sim(), tb.server().topology(),
                      tb.rest().router());
    Tick crashedAt = 0, restartedAt = 0;
    std::uint32_t lostTail = 0;
    inj.setCoordinatorCrashHooks(
        [&](Tick now) { crashedAt = now; },
        [&](Tick now, std::uint32_t lose) {
            restartedAt = now;
            lostTail = lose;
        });

    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = msToTicks(10.0);
    crash.duration = msToTicks(40.0);
    crash.loseTail = 2;
    plan.add(crash);
    inj.arm(plan);

    tb.sim().runUntil(msToTicks(20.0));
    EXPECT_EQ(crashedAt, msToTicks(10.0));
    EXPECT_TRUE(inj.coordinatorCrashed(msToTicks(20.0)));
    EXPECT_TRUE(inj.coordinatorUnavailable(msToTicks(20.0)));
    // Mid-window southbound calls fail retryably and give up.
    EXPECT_FALSE(consumer.allocateTensor(mb).has_value());
    EXPECT_GT(inj.stats().rejectedDuringCrash, 0u);

    tb.sim().runUntil(msToTicks(60.0));
    EXPECT_EQ(restartedAt, msToTicks(50.0));
    EXPECT_EQ(lostTail, 2u);
    EXPECT_FALSE(inj.coordinatorCrashed(msToTicks(60.0)));
    EXPECT_TRUE(consumer.allocateTensor(mb).has_value());
}

//
// End-to-end crash recovery through the RecoveryManager.
//

TEST(RecoveryManager, CrashMidEvacuationRecoversLeasesAndTensors)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLib &producer = tb.makeAquaLib(1);
    AquaLib &consumer = tb.makeAquaLib(0);
    // Journal from the very first mutation: makeRecovery() attaches
    // the coordinator journal and registers both libs as survivors.
    RecoveryManager &rm = tb.makeRecovery();
    tb.assign(0, 1);

    trace::TraceLog log;
    rm.setTraceLog(&log);

    // Donate through the library so the survivor re-asserts the lease
    // on resync (a coordinator-side lease would die with the journal).
    producer.confirmDonate(10 * gb);
    ASSERT_TRUE(producer.hasDonated());
    auto id = consumer.allocateTensor(256 * mb);
    ASSERT_TRUE(id);
    ASSERT_EQ(consumer.tensorLocation(*id).placement,
              Placement::PeerGpu);
    consumer.writeTensor(*id, 256 * mb, 128);
    std::uint64_t sig = consumer.tensorSignature(*id);

    FaultInjector inj(tb.sim(), tb.server().topology(),
                      tb.rest().router());
    rm.wire(inj);
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = msToTicks(10.0);
    crash.duration = msToTicks(5.0);
    crash.loseTail = 8; // more than the whole pending tail
    plan.add(crash);
    inj.arm(plan);

    tb.sim().runUntil(msToTicks(20.0));
    EXPECT_EQ(rm.stats().crashes, 1u);
    EXPECT_EQ(rm.stats().restarts, 1u);
    EXPECT_EQ(rm.stats().survivorsResynced, 2u);

    // The survivors re-asserted the lease and the tensor: accounting
    // is exact and the reclaim path still works end to end.
    EXPECT_TRUE(tb.coordinator().auditInvariants().empty());
    EXPECT_EQ(tb.coordinator().liveTensors(), 1u);
    EXPECT_EQ(tb.coordinator().bytesOnProducers(), 256 * mb);
    EXPECT_EQ(tb.coordinator().producerState(1).leasedBytes, 10 * gb);
    EXPECT_GE(log.countCategory("recovery_complete"), 1u);

    tb.coordinator().requestReclaim(1);
    consumer.respond();
    EXPECT_EQ(consumer.tensorLocation(*id).placement,
              Placement::HostDram);
    EXPECT_EQ(consumer.tensorSignature(*id), sig);
    EXPECT_TRUE(tb.coordinator().auditInvariants().empty());
    EXPECT_TRUE(replayEqualsLive(tb.coordinator(), *tb.coordinatorJournal()));
    (void)producer;
}

TEST(RecoveryManager, FederationReplaysWithLostTailAndADeadDonor)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLib &producer = tb.makeAquaLib(1);
    AquaLib &consumer = tb.makeAquaLib(0);
    PrefixRegistry &reg = tb.makePrefixRegistry();
    RecoveryManager &rm = tb.makeRecovery();
    federation::FederationDirectory dir(tb.sim(), reg);
    federation::FederationDirectory::Journal dirJournal;
    rm.attachFederation(dir, dirJournal);
    tb.assign(0, 1);

    producer.confirmDonate(10 * gb);
    auto id = consumer.allocateTensor(256 * mb);
    ASSERT_TRUE(id);
    ASSERT_EQ(consumer.tensorLocation(*id).placement,
              Placement::PeerGpu);
    consumer.writeTensor(*id, 256 * mb, 128);
    std::uint64_t sig = consumer.tensorSignature(*id);

    // Two chains homed on GPU 0: the directory advertises both.
    RegistryAgent agent;
    agent.setPinned = [](std::uint64_t, bool) { return true; };
    agent.promote = [](std::uint64_t) { return true; };
    reg.setAgent(0, agent);
    pub(reg, 0, 0xa1, 0xb1);
    pub(reg, 0, 0xc2, 0xd2);
    ASSERT_EQ(dir.localAdvertCount(), 2u);
    EXPECT_TRUE(replayEqualsLive(dir, dirJournal));

    // The donor's software dies before the crash (its HBM stays
    // readable for the grace window), so it never resyncs. The crash
    // loses each journal's newest record: the consumer's allocation,
    // and the second chain's home and advert.
    FaultInjector inj(tb.sim(), tb.server().topology(),
                      tb.rest().router());
    inj.registerLib(producer);
    rm.wire(inj);
    FaultPlan plan;
    FaultSpec gpuFail;
    gpuFail.kind = FaultKind::GpuFail;
    gpuFail.at = msToTicks(5.0);
    gpuFail.duration = 0;
    gpuFail.gpu = 1;
    gpuFail.grace = msToTicks(200.0);
    plan.add(gpuFail);
    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = msToTicks(10.0);
    crash.duration = msToTicks(5.0);
    crash.loseTail = 1;
    plan.add(crash);
    inj.arm(plan);

    tb.sim().runUntil(msToTicks(12.0));
    EXPECT_TRUE(dir.frozen());
    tb.sim().runUntil(msToTicks(20.0));
    EXPECT_FALSE(dir.frozen());
    EXPECT_FALSE(reg.frozen());
    EXPECT_EQ(rm.stats().droppedRecords, 3u);
    EXPECT_EQ(rm.stats().survivorsResynced, 1u);
    EXPECT_EQ(rm.stats().survivorsUnreachable, 1u);
    // The lost advert is gone with the lost home; the other replayed.
    EXPECT_EQ(dir.localAdvertCount(), 1u);
    EXPECT_EQ(reg.homeOf(0xa1), 0);
    EXPECT_EQ(reg.homeOf(0xc2), hw::hostDramId);
    // The consumer re-asserted its allocation; the silent donor's
    // lease is dead, so the tensor evacuates as an emergency.
    EXPECT_EQ(tb.coordinator().liveTensors(), 1u);
    EXPECT_FALSE(tb.coordinator().leaseAlive(1));
    EXPECT_TRUE(replayEqualsLive(tb.coordinator(),
                                 *tb.coordinatorJournal()));
    EXPECT_TRUE(replayEqualsLive(reg, *tb.prefixRegistryJournal()));
    EXPECT_TRUE(replayEqualsLive(dir, dirJournal));

    consumer.respond();
    EXPECT_EQ(consumer.tensorLocation(*id).placement,
              Placement::HostDram);
    EXPECT_EQ(consumer.tensorSignature(*id), sig);
    EXPECT_EQ(consumer.stats().emergencyMigrations, 1u);
    pub(reg, 0, 0xe3, 0xf3, tb.sim().now());
    EXPECT_EQ(dir.localAdvertCount(), 2u);
    EXPECT_TRUE(replayEqualsLive(tb.coordinator(),
                                 *tb.coordinatorJournal()));
    EXPECT_TRUE(replayEqualsLive(reg, *tb.prefixRegistryJournal()));
    EXPECT_TRUE(replayEqualsLive(dir, dirJournal));
}

TEST(RecoveryManager, SurvivorThatCannotReachTheRestartIsSwept)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLib &producer = tb.makeAquaLib(1);
    AquaLib &consumer = tb.makeAquaLib(0);
    RecoveryManager &rm = tb.makeRecovery();
    tb.assign(0, 1);
    producer.confirmDonate(10 * gb);
    ASSERT_TRUE(consumer.allocateTensor(256 * mb));

    // An outage outlasts the restart: no survivor's /resync gets
    // through, so the sweep drops what nobody re-asserted.
    FaultInjector inj(tb.sim(), tb.server().topology(),
                      tb.rest().router());
    rm.wire(inj);
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = msToTicks(10.0);
    crash.duration = msToTicks(5.0);
    plan.add(crash);
    FaultSpec outage;
    outage.kind = FaultKind::CoordinatorOutage;
    outage.at = msToTicks(14.0);
    outage.duration = secToTicks(1.0);
    plan.add(outage);
    inj.arm(plan);

    tb.sim().runUntil(msToTicks(20.0));
    EXPECT_EQ(rm.stats().survivorsResynced, 0u);
    EXPECT_EQ(rm.stats().survivorsUnreachable, 2u);
    EXPECT_EQ(rm.stats().orphanedTensors, 1u);
    EXPECT_EQ(rm.stats().orphanedBytes, 256 * mb);
    EXPECT_EQ(tb.coordinator().liveTensors(), 0u);
    EXPECT_FALSE(tb.coordinator().leaseAlive(1));
    EXPECT_TRUE(replayEqualsLive(tb.coordinator(),
                                 *tb.coordinatorJournal()));
}

TEST(RecoveryManager, FreeAfterTheSweepIsAnsweredUnknown)
{
    // The survivor that missed the restart still holds its tensor
    // after the sweep dropped it: once the outage ends, its /free gets
    // a 404 the library counts instead of a coordinator panic.
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLib &producer = tb.makeAquaLib(1);
    AquaLib &consumer = tb.makeAquaLib(0);
    RecoveryManager &rm = tb.makeRecovery();
    tb.assign(0, 1);
    producer.confirmDonate(10 * gb);
    std::optional<TensorId> id = consumer.allocateTensor(256 * mb);
    ASSERT_TRUE(id);

    FaultInjector inj(tb.sim(), tb.server().topology(),
                      tb.rest().router());
    rm.wire(inj);
    FaultPlan plan;
    FaultSpec crash;
    crash.kind = FaultKind::CoordinatorCrash;
    crash.at = msToTicks(10.0);
    crash.duration = msToTicks(5.0);
    plan.add(crash);
    FaultSpec outage;
    outage.kind = FaultKind::CoordinatorOutage;
    outage.at = msToTicks(14.0);
    outage.duration = msToTicks(10.0);
    plan.add(outage);
    inj.arm(plan);

    tb.sim().runUntil(msToTicks(30.0));
    ASSERT_EQ(rm.stats().orphanedTensors, 1u);
    ASSERT_EQ(tb.coordinator().liveTensors(), 0u);
    consumer.freeTensor(*id);
    EXPECT_EQ(consumer.stats().freesAfterSweep, 1u);
    EXPECT_EQ(tb.coordinator().liveTensors(), 0u);
    EXPECT_TRUE(tb.coordinator().auditInvariants().empty());
    EXPECT_TRUE(replayEqualsLive(tb.coordinator(),
                                 *tb.coordinatorJournal()));
}

//
// Seeded retry-backoff jitter (satellite).
//

TEST(RetryJitter, ZeroJitterKeepsLegacyBackoffExactly)
{
    // Two identical runs, jitter off: the blocked time is the exact
    // legacy closed form (attempts * latency + geometric backoff).
    for (int run = 0; run < 2; ++run) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        AquaLibConfig cfg;
        cfg.restLatency = usToTicks(100.0);
        cfg.restBackoffBase = usToTicks(50.0);
        cfg.maxRestAttempts = 3;
        AquaLib &lib = tb.makeAquaLib(0);
        AquaLib &retrying = tb.makeAquaLib(1, nullptr, cfg);
        (void)lib;

        FaultInjector inj(tb.sim(), tb.server().topology(),
                          tb.rest().router());
        FaultPlan plan;
        FaultSpec outage;
        outage.kind = FaultKind::CoordinatorOutage;
        outage.at = 0;
        outage.duration = secToTicks(10.0);
        plan.add(outage);
        inj.arm(plan);
        tb.sim().runUntil(0);

        Tick blocked = retrying.respond();
        // 3 attempts * 100us latency + 50us + 100us backoff.
        EXPECT_EQ(blocked, tb.sim().now() + usToTicks(450.0));
        EXPECT_EQ(retrying.stats().restRetries, 2u);
    }
}

TEST(RetryJitter, SeededJitterIsDeterministicAndBounded)
{
    auto blockedWith = [](double jitter, std::uint64_t seed) {
        exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
        AquaLibConfig cfg;
        cfg.restLatency = usToTicks(100.0);
        cfg.restBackoffBase = usToTicks(50.0);
        cfg.maxRestAttempts = 3;
        cfg.retryJitter = jitter;
        cfg.jitterSeed = seed;
        AquaLib &retrying = tb.makeAquaLib(1, nullptr, cfg);
        FaultInjector inj(tb.sim(), tb.server().topology(),
                          tb.rest().router());
        FaultPlan plan;
        FaultSpec outage;
        outage.kind = FaultKind::CoordinatorOutage;
        outage.at = 0;
        outage.duration = secToTicks(10.0);
        plan.add(outage);
        inj.arm(plan);
        tb.sim().runUntil(0);
        return retrying.respond() - tb.sim().now();
    };

    // Same (jitter, seed) reproduces exactly; seeds decorrelate.
    EXPECT_EQ(blockedWith(0.5, 7), blockedWith(0.5, 7));
    EXPECT_NE(blockedWith(0.5, 7), blockedWith(0.5, 8));
    // Jittered backoff stays inside [1-j, 1+j) of the base sum:
    // 300us latency + 150us * [0.5, 1.5).
    Tick jittered = blockedWith(0.5, 7);
    EXPECT_GE(jittered, usToTicks(300.0 + 75.0));
    EXPECT_LT(jittered, usToTicks(300.0 + 225.0));
}

//
// Migration-path payload integrity.
//

TEST(PayloadIntegrity, MigrationCorruptionIsDetectedAndRepaired)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLib &consumer = tb.makeAquaLib(0);
    tb.assign(0, 1);
    tb.coordinator().lease(1, 10 * gb, 0);
    trace::TraceLog log;
    consumer.setTraceLog(&log);

    auto id = consumer.allocateTensor(64 * mb);
    ASSERT_TRUE(id);
    consumer.writeTensor(*id, 64 * mb, 32);
    std::uint64_t sig = consumer.tensorSignature(*id);

    // Every in-flight payload corrupts while the window is open.
    tb.server().topology().setPayloadCorruption(1.0);
    tb.coordinator().requestReclaim(1);
    consumer.respond();
    tb.server().topology().setPayloadCorruption(0.0);

    EXPECT_EQ(consumer.tensorLocation(*id).placement,
              Placement::HostDram);
    EXPECT_EQ(consumer.stats().corruptionsDetected, 1u);
    EXPECT_EQ(consumer.stats().corruptionsRepaired, 1u);
    EXPECT_EQ(log.countCategory("corruption_detected"), 1u);
    EXPECT_EQ(log.countCategory("corruption_repaired"), 1u);
    // The repaired copy carries the original bytes.
    EXPECT_EQ(consumer.tensorSignature(*id), sig);
    EXPECT_EQ(tb.server().topology().payloadCorruptions(), 1u);
}

//
// Emergency evacuation overlapping ssd_fail (satellite).
//

TEST(OverlappingFaults, EvacuationDuringSsdFailLosesNothing)
{
    exp::Testbed tb(2, hw::TopologyKind::DirectP2P);
    AquaLibConfig prodCfg;
    prodCfg.heartbeatInterval = msToTicks(5.0);
    AquaLib &producer = tb.makeAquaLib(1, nullptr, prodCfg);
    AquaLib &consumer = tb.makeAquaLib(0);
    tb.assign(0, 1);

    tb.coordinator().setLeaseTtl(msToTicks(20.0));
    tb.coordinator().lease(1, 10 * gb, 0);
    producer.startHeartbeats(secToTicks(1.0));

    std::vector<TensorId> ids;
    std::vector<std::uint64_t> sigs;
    for (int i = 0; i < 3; ++i) {
        auto id = consumer.allocateTensor(64 * mb);
        ASSERT_TRUE(id);
        consumer.writeTensor(*id, 64 * mb, 32);
        ids.push_back(*id);
        sigs.push_back(consumer.tensorSignature(*id));
    }

    // The donor dies at 100ms (memory readable through 300ms) while
    // the SSD is dark from 90ms to 200ms: the staged emergency
    // evacuation must route GPU→DRAM untouched by the dead tier.
    FaultPlan plan;
    FaultSpec gpuFail;
    gpuFail.kind = FaultKind::GpuFail;
    gpuFail.at = msToTicks(100.0);
    gpuFail.duration = 0;
    gpuFail.gpu = 1;
    gpuFail.grace = msToTicks(200.0);
    plan.add(gpuFail);
    FaultSpec ssdFail;
    ssdFail.kind = FaultKind::SsdFail;
    ssdFail.at = msToTicks(90.0);
    ssdFail.duration = msToTicks(110.0);
    plan.add(ssdFail);
    FaultInjector inj(tb.sim(), tb.server().topology(),
                      tb.rest().router());
    inj.registerLib(producer);
    inj.arm(plan);

    tb.sim().runUntil(msToTicks(150.0));
    EXPECT_TRUE(tb.server().topology().ssdFailed());
    Tick blocked = consumer.respond();
    EXPECT_LT(blocked, msToTicks(300.0)); // beat the grace window

    // Every tensor ended resident in DRAM with its bytes intact —
    // none silently lost to the overlapping tier failure.
    for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(consumer.tensorLocation(ids[i]).placement,
                  Placement::HostDram);
        EXPECT_EQ(consumer.tensorSignature(ids[i]), sigs[i]);
    }
    EXPECT_EQ(consumer.stats().emergencyMigrations, 3u);
    EXPECT_TRUE(tb.coordinator().auditInvariants().empty());
}
