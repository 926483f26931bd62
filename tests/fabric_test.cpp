//===- tests/fabric_test.cpp - Cross-node distribution tests --------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// The distributed harness: a NodeCoordinator and N NodeWorkers joined by
// the in-process loopback fabric, with every failure mode driven by a
// seeded fault script keyed on message content (frame type, shard id,
// epoch) — never on thread interleaving. The contracts under test:
//
//  * A loopback-distributed sweep is bit-exact with a single-process run
//    whose SubBatchSize equals the shard chunk, for every personality
//    and node count.
//  * A node killed mid-shard is declared dead by heartbeat timeout, its
//    in-flight shards are re-granted, and recovery is bit-exact.
//  * Late and duplicated OutcomeBatches are suppressed by the epoch
//    dedup ledger: every simulation reaches the sink exactly once.
//  * A heartbeat delay long enough to declare a false death is healed:
//    the node rejoins and its stale-epoch results rescue the shards.
//  * A shard whose owners keep dying exhausts MaxShardAttempts and is
//    delivered as Aborted outcomes — a counted loss, never a gap.
//  * Distribution costs no modeled device time: one node matches the
//    in-process executor and four nodes divide the modeled makespan.
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"
#include "core/ParameterSpace.h"
#include "fabric/LoopbackFabric.h"
#include "fabric/NodeCoordinator.h"
#include "fabric/NodeWorker.h"
#include "sim/Oracle.h"

#include "rbm/CuratedModels.h"
#include "sched/ShardedExecutor.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

using namespace psg;

namespace {

ParameterAxis rateAxis(unsigned Reaction, double Lo, double Hi) {
  ParameterAxis Axis;
  Axis.Name = formatString("k%u", Reaction);
  Axis.Target = AxisTarget::RateConstant;
  Axis.Reactions = {Reaction};
  Axis.Lo = Lo;
  Axis.Hi = Hi;
  return Axis;
}

std::vector<Parameterization> makeSweep(const ParameterSpace &Space,
                                        size_t Points) {
  std::vector<Parameterization> Params;
  for (const std::vector<double> &P : Space.gridSample({Points}))
    Params.push_back(Space.applyPoint(P));
  return Params;
}

ParameterizationSource sourceOver(const std::vector<Parameterization> &Params,
                                  size_t &Next) {
  return [&Params, &Next](size_t MaxCount,
                          std::vector<Parameterization> &Out) -> size_t {
    const size_t Count = std::min(MaxCount, Params.size() - Next);
    for (size_t I = 0; I < Count; ++I)
      Out.push_back(Params[Next + I]);
    Next += Count;
    return Count;
  };
}

/// Places every outcome at its global index and counts deliveries per
/// index, so exactly-once delivery is checkable under any completion
/// order.
class IndexedSink final : public OutcomeSink {
public:
  std::vector<SimulationOutcome> Outcomes;
  std::vector<unsigned> Deliveries;
  size_t LastFirst = 0;
  bool Monotone = true;
  bool First = true;

  explicit IndexedSink(size_t Total) : Outcomes(Total), Deliveries(Total, 0) {}

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Batch) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!First && FirstIndex < LastFirst)
      Monotone = false;
    First = false;
    LastFirst = FirstIndex;
    ASSERT_LE(FirstIndex + Batch.size(), Outcomes.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      Outcomes[FirstIndex + I] = std::move(Batch[I]);
      ++Deliveries[FirstIndex + I];
    }
  }

private:
  std::mutex Mutex;
};

/// Single-process reference outcomes with SubBatchSize == \p Chunk.
std::vector<SimulationOutcome>
referenceOutcomes(const ReactionNetwork &Net, const std::string &Personality,
                  std::vector<Parameterization> Params, uint64_t Chunk) {
  EngineOptions Opts;
  Opts.SimulatorName = Personality;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  EngineReport Report = Engine.runParameterizations(Net, std::move(Params));
  return std::move(Report.Outcomes);
}

struct DistributedRun {
  FabricScheduleReport Report;
  std::vector<WorkerReport> Workers;
};

/// Spins up \p NumNodes loopback workers of \p Personality, streams
/// \p Sweep through a NodeCoordinator configured from \p Fab, and joins
/// everything down (the fabric shutdown releases workers that were
/// faulted out of the goodbye).
DistributedRun runDistributed(const ReactionNetwork &Net,
                              const std::vector<Parameterization> &Sweep,
                              const std::string &Personality,
                              unsigned NumNodes, unsigned DevicesPerNode,
                              uint64_t Chunk, IndexedSink &Sink,
                              FabricOptions Fab = {},
                              FaultScript Script = nullptr) {
  LoopbackFabric Fabric;
  // Every worker's first frame is its Hello. Counting them lets the
  // coordinator start only once all nodes have joined: a worker thread
  // scheduled after a small sweep already finished would otherwise never
  // be granted work or told goodbye, which the tests take for granted.
  auto Hellos = std::make_shared<std::atomic<unsigned>>(0);
  Fabric.setFaultScript(
      [Hellos, Script = std::move(Script)](const FaultContext &C) {
        if (C.Frame.Type == MessageType::Hello)
          ++*Hellos;
        return Script ? Script(C) : FaultAction();
      });
  std::unique_ptr<FabricEndpoint> CoordEp =
      Fabric.createEndpoint(CoordinatorNode);
  std::vector<std::unique_ptr<FabricEndpoint>> WorkerEps;
  for (unsigned N = 1; N <= NumNodes; ++N)
    WorkerEps.push_back(Fabric.createEndpoint(N));

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;

  Fab.Endpoint = CoordEp.get();
  for (unsigned N = 1; N <= NumNodes; ++N)
    Fab.Workers.push_back(N);
  Fab.HeartbeatIntervalSeconds = 0.005; // Poll tick; keeps tests fast.

  DistributedRun R;
  R.Workers.resize(NumNodes);
  std::vector<std::thread> Threads;
  for (unsigned N = 0; N < NumNodes; ++N)
    Threads.emplace_back([&, N] {
      SchedOptions Local;
      Local.Devices.assign(DevicesPerNode, Personality);
      Local.WorkersPerDevice = 1;
      NodeWorker Worker(CostModel::paperSetup(), *WorkerEps[N], Local,
                        /*HeartbeatIntervalSeconds=*/0.01);
      R.Workers[N] = Worker.serve(Net);
    });
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Hellos->load() < NumNodes &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  NodeCoordinator Coord(Opts, Fab);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  R.Report = Coord.streamParameterizations(Net, Source, Sink);
  Fabric.shutdown();
  for (std::thread &T : Threads)
    T.join();
  return R;
}

void expectBitExact(const IndexedSink &Sink,
                    const std::vector<SimulationOutcome> &Reference,
                    const std::string &Tag) {
  ASSERT_EQ(Sink.Outcomes.size(), Reference.size()) << Tag;
  for (size_t I = 0; I < Reference.size(); ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << Tag << " sim " << I;
    Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << Tag << " outcome " << I << ": " << S.message();
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Bit-exact oracle: distributed == single-process for every personality
// and node count.
//===----------------------------------------------------------------------===//

TEST(FabricTest, DistributedIsBitExactWithSingleProcessOracle) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 32;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  for (const char *Personality : {"psg-engine", "cpu-lsoda", "cpu-vode",
                                  "gpu-coarse", "gpu-fine"}) {
    const std::vector<SimulationOutcome> Reference =
        referenceOutcomes(Net, Personality, Sweep, Chunk);
    ASSERT_EQ(Reference.size(), Points) << Personality;

    for (unsigned Nodes : {1u, 2u, 4u}) {
      const std::string Tag =
          std::string(Personality) + " nodes " + std::to_string(Nodes);
      IndexedSink Sink(Points);
      DistributedRun R = runDistributed(Net, Sweep, Personality, Nodes,
                                        /*DevicesPerNode=*/1, Chunk, Sink);

      EXPECT_EQ(R.Report.Stream.Simulations, Points) << Tag;
      EXPECT_EQ(R.Report.LostSimulations, 0u) << Tag;
      EXPECT_EQ(R.Report.NodeDeaths, 0u) << Tag;
      EXPECT_EQ(R.Report.Stream.Failures, 0u) << Tag;
      EXPECT_TRUE(Sink.Monotone) << Tag << ": ordered delivery";
      EXPECT_GT(R.Report.ModeledMakespanSeconds, 0.0) << Tag;
      EXPECT_GE(R.Report.ShardImbalance, 0.0) << Tag;
      EXPECT_LE(R.Report.ShardImbalance, 1.0) << Tag;

      ASSERT_EQ(R.Report.Nodes.size(), Nodes) << Tag;
      uint64_t NodeSims = 0, WorkerSims = 0;
      for (const NodeScheduleReport &N : R.Report.Nodes) {
        NodeSims += N.Simulations;
        EXPECT_GE(N.Utilization, 0.0) << Tag;
        EXPECT_LE(N.Utilization, 1.0) << Tag;
      }
      EXPECT_EQ(NodeSims, Points) << Tag;
      for (const WorkerReport &W : R.Workers) {
        WorkerSims += W.Simulations;
        EXPECT_EQ(W.ExitReason, "coordinator goodbye") << Tag;
      }
      EXPECT_EQ(WorkerSims, Points) << Tag;

      expectBitExact(Sink, Reference, Tag);
    }
  }
}

TEST(FabricTest, MultiDeviceNodesKeepChunkBoundariesBitExact) {
  // Two nodes with two local devices each: grants span Chunk * 2, the
  // worker's local executor re-cuts them at Chunk — so the global
  // sub-batch boundaries survive and the sweep stays bit-exact.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 48;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  IndexedSink Sink(Points);
  DistributedRun R = runDistributed(Net, Sweep, "psg-engine", /*NumNodes=*/2,
                                    /*DevicesPerNode=*/2, Chunk, Sink);
  EXPECT_EQ(R.Report.Stream.Simulations, Points);
  EXPECT_EQ(R.Report.LostSimulations, 0u);
  EXPECT_TRUE(Sink.Monotone);
  expectBitExact(Sink, Reference, "2x2 devices");
}

TEST(FabricTest, EngineFabricPathMatchesSingleProcessRun) {
  // The BatchEngine front door: Fabric.enabled() reroutes a streaming
  // run through the NodeCoordinator; the materialized report must stay
  // bit-exact with the plain engine.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 24;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  LoopbackFabric Fabric;
  std::unique_ptr<FabricEndpoint> CoordEp =
      Fabric.createEndpoint(CoordinatorNode);
  std::unique_ptr<FabricEndpoint> WorkerEp = Fabric.createEndpoint(1);
  std::thread Worker([&] {
    SchedOptions Local;
    Local.Devices = {"psg-engine"};
    Local.WorkersPerDevice = 1;
    NodeWorker W(CostModel::paperSetup(), *WorkerEp, Local, 0.01);
    W.serve(Net);
  });

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  Opts.Fabric.Endpoint = CoordEp.get();
  Opts.Fabric.Workers = {1};
  Opts.Fabric.HeartbeatIntervalSeconds = 0.005;
  ASSERT_TRUE(Opts.Fabric.enabled());

  BatchEngine Engine(CostModel::paperSetup(), Opts);
  EngineReport Report = Engine.runParameterizations(Net, Sweep);
  Fabric.shutdown();
  Worker.join();

  ASSERT_EQ(Report.Outcomes.size(), Points);
  EXPECT_EQ(Report.Failures, 0u);
  EXPECT_GT(Report.Metrics.counterValue("psg.fabric.shards"), 0u);
  for (size_t I = 0; I < Points; ++I) {
    Status S = compareOutcomesBitExact(Report.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
  }
}

//===----------------------------------------------------------------------===//
// Modeled scaling: the wire moves bytes, not modeled device time.
//===----------------------------------------------------------------------===//

namespace {

/// Curated defaults with ±10% rate-constant jitter, the coherent-
/// neighbour regime of the paper's batches.
std::vector<Parameterization> jitteredSweep(const ReactionNetwork &Net,
                                            size_t Sims, uint64_t Seed) {
  Rng Generator(Seed);
  std::vector<Parameterization> Params(Sims);
  for (Parameterization &P : Params) {
    P.InitialState = Net.initialState();
    for (size_t R = 0; R < Net.numReactions(); ++R)
      P.RateConstants.push_back(Net.reaction(R).RateConstant *
                                (0.9 + 0.2 * Generator.uniform()));
  }
  return Params;
}

/// Modeled throughput of the in-process executor on one gpu-coarse
/// device under runDistributed's engine options: the measured sweep
/// after a warm-up sweep on the same executor.
double inProcessThroughput(const ReactionNetwork &Net,
                           const std::vector<Parameterization> &Params,
                           uint64_t Chunk) {
  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  Opts.Sched.Devices = {"gpu-coarse"};
  Opts.Sched.ChunkSize = Chunk;
  Opts.Sched.WorkersPerDevice = 1;
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  ShardScheduleReport Report;
  for (int Pass = 0; Pass < 2; ++Pass) {
    size_t Next = 0;
    ParameterizationSource Source = sourceOver(Params, Next);
    IndexedSink Sink(Params.size());
    Report = Executor.streamParameterizations(Net, nullptr, Source, Sink);
  }
  EXPECT_EQ(Report.Stream.Failures, 0u);
  return Report.modeledThroughputPerSecond();
}

} // namespace

TEST(FabricTest, LoopbackNodesScaleModeledThroughput) {
  // One loopback node keeps at least 0.8x of the in-process executor's
  // modeled throughput, and four nodes divide the makespan: more than
  // 1.5x one node, every node busy. Shard imbalance is not bounded here:
  // each grant goes to whichever node has a free queue slot, so how the
  // 16 shards split across four nodes follows host timing.
  const uint64_t Chunk = 32;
  const ReactionNetwork Brusselator = makeBrusselatorNetwork();
  const ReactionNetwork DecayChain = makeDecayChainNetwork(8, 0.5);
  metrics().reset();
  for (const ReactionNetwork *Net : {&Brusselator, &DecayChain}) {
    const std::vector<Parameterization> Params = jitteredSweep(*Net, 512, 42);
    auto distributed = [&](unsigned Nodes) {
      const std::string Tag =
          formatString("%s, %u node(s)", Net->name().c_str(), Nodes);
      IndexedSink Sink(Params.size());
      const DistributedRun R = runDistributed(
          *Net, Params, "gpu-coarse", Nodes, /*DevicesPerNode=*/1, Chunk, Sink);
      EXPECT_EQ(R.Report.Stream.Simulations, Params.size()) << Tag;
      EXPECT_EQ(R.Report.Stream.Failures, 0u) << Tag;
      EXPECT_EQ(R.Report.LostSimulations, 0u) << Tag;
      EXPECT_EQ(R.Report.NodeDeaths, 0u) << Tag;
      for (const NodeScheduleReport &N : R.Report.Nodes)
        EXPECT_GT(N.Shards, 0u) << Tag << ", node " << N.Node;
      return R.Report;
    };

    const double InProcess = inProcessThroughput(*Net, Params, Chunk);
    const double One = distributed(1).modeledThroughputPerSecond();
    EXPECT_GE(One, 0.8 * InProcess) << Net->name();
    EXPECT_GT(distributed(4).modeledThroughputPerSecond(), 1.5 * One)
        << Net->name();
  }
  const MetricsSnapshot M = metrics().snapshot();
  EXPECT_GT(M.counterValue("psg.fabric.frames_sent"), 0u);
  EXPECT_GT(M.counterValue("psg.fabric.bytes_sent"), 0u);
}

//===----------------------------------------------------------------------===//
// Fault scripts: kill, duplicate, delay, exhausted re-queue.
//===----------------------------------------------------------------------===//

namespace {

/// Shared mutable state for fault scripts (a FaultScript is a copyable
/// std::function, so state lives behind a shared_ptr).
struct ScriptState {
  std::map<NodeId, double> DeadUntil; ///< Drop frames from node until t.
  bool Armed = false;
  uint64_t Fired = 0;
};

} // namespace

TEST(FabricTest, NodeKillMidShardIsRequeuedAndRecoveredBitExact) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 32;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  // Kill node 2 the moment it adopts its first shard: every frame it
  // sends for the next 0.4 s is lost, so the coordinator declares it
  // dead by heartbeat timeout and re-grants its in-flight shards.
  auto S = std::make_shared<ScriptState>();
  FaultScript Script = [S](const FaultContext &C) {
    FaultAction A;
    if (C.Frame.Type == MessageType::ShardGrant && C.To == 2 && !S->Armed) {
      S->Armed = true;
      S->DeadUntil[2] = C.Now + 0.4;
      ++S->Fired;
    }
    auto It = S->DeadUntil.find(C.From);
    if (It != S->DeadUntil.end() && C.Now < It->second)
      A.Drop = true;
    return A;
  };

  FabricOptions Fab;
  Fab.HeartbeatTimeoutSeconds = 0.05;
  IndexedSink Sink(Points);
  DistributedRun R = runDistributed(Net, Sweep, "psg-engine", /*NumNodes=*/2,
                                    /*DevicesPerNode=*/1, Chunk, Sink, Fab,
                                    Script);

  EXPECT_EQ(S->Fired, 1u);
  EXPECT_GE(R.Report.NodeDeaths, 1u);
  EXPECT_GE(R.Report.Requeues, 1u);
  EXPECT_EQ(R.Report.LostSimulations, 0u);
  EXPECT_EQ(R.Report.Stream.Simulations, Points);
  EXPECT_EQ(R.Report.Stream.Failures, 0u);
  EXPECT_TRUE(Sink.Monotone);
  expectBitExact(Sink, Reference, "node kill");
}

TEST(FabricTest, LateDuplicateOutcomeBatchesAreSuppressed) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 32;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  // Every OutcomeBatch is delivered twice and held back, so the copies
  // arrive late and reordered against heartbeats. The dedup ledger must
  // suppress exactly one copy of each.
  auto S = std::make_shared<ScriptState>();
  FaultScript Script = [S](const FaultContext &C) {
    FaultAction A;
    if (C.Frame.Type == MessageType::OutcomeBatch) {
      A.Duplicate = true;
      A.DelaySeconds = 0.02;
      ++S->Fired;
    }
    return A;
  };

  IndexedSink Sink(Points);
  DistributedRun R =
      runDistributed(Net, Sweep, "psg-engine", /*NumNodes=*/2,
                     /*DevicesPerNode=*/1, Chunk, Sink, {}, Script);

  EXPECT_GE(S->Fired, Points / Chunk);
  EXPECT_EQ(R.Report.DuplicateBatches, S->Fired);
  EXPECT_EQ(R.Report.NodeDeaths, 0u);
  EXPECT_EQ(R.Report.LostSimulations, 0u);
  EXPECT_EQ(R.Report.Stream.Simulations, Points);
  EXPECT_TRUE(Sink.Monotone);
  expectBitExact(Sink, Reference, "duplicate batches");
}

TEST(FabricTest, HeartbeatDelayFalseDeathHealsByRejoinAndRescue) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 16;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  // Single worker. From its first OutcomeBatch on, its heartbeats are
  // dropped for good and its in-window batches delayed past the window —
  // long enough for the coordinator to declare a false death and
  // re-queue the shards. With heartbeats gone, the node's first contact
  // after the death IS a delayed stale-epoch batch: it must both rejoin
  // the node and rescue its shard (or be suppressed as a duplicate of a
  // re-grant that raced it): no loss, no double delivery.
  auto S = std::make_shared<ScriptState>();
  FaultScript Script = [S](const FaultContext &C) {
    FaultAction A;
    if (C.From != 1)
      return A;
    if (C.Frame.Type == MessageType::OutcomeBatch && !S->Armed) {
      S->Armed = true;
      S->DeadUntil[1] = C.Now + 0.3;
    }
    if (!S->Armed)
      return A;
    if (C.Frame.Type == MessageType::Heartbeat) {
      A.Drop = true;
      return A;
    }
    auto It = S->DeadUntil.find(C.From);
    if (C.Frame.Type == MessageType::OutcomeBatch && C.Now < It->second)
      A.DelaySeconds = It->second - C.Now + 0.05;
    return A;
  };

  FabricOptions Fab;
  Fab.HeartbeatTimeoutSeconds = 0.05;
  IndexedSink Sink(Points);
  DistributedRun R = runDistributed(Net, Sweep, "psg-engine", /*NumNodes=*/1,
                                    /*DevicesPerNode=*/1, Chunk, Sink, Fab,
                                    Script);

  EXPECT_GE(R.Report.NodeDeaths, 1u);
  EXPECT_GE(R.Report.NodeRejoins, 1u);
  EXPECT_GE(R.Report.StaleEpochBatches + R.Report.DuplicateBatches, 1u);
  EXPECT_EQ(R.Report.LostSimulations, 0u);
  EXPECT_EQ(R.Report.Stream.Simulations, Points);
  EXPECT_EQ(R.Report.Stream.Failures, 0u);
  EXPECT_TRUE(Sink.Monotone);
  expectBitExact(Sink, Reference, "false death");
}

TEST(FabricTest, ExhaustedRequeueSurfacesAbortedOutcomes) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 8; // Exactly one shard.
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  // Whichever node adopts the shard goes silent for 0.4 s, so every
  // attempt dies by heartbeat timeout. With MaxShardAttempts = 2 the
  // second death exhausts the budget and the shard must surface as
  // Aborted outcomes — delivered exactly once, counted as lost.
  auto S = std::make_shared<ScriptState>();
  FaultScript Script = [S](const FaultContext &C) {
    FaultAction A;
    if (C.Frame.Type == MessageType::ShardGrant) {
      S->DeadUntil[C.To] = C.Now + 0.4;
      ++S->Fired;
    }
    auto It = S->DeadUntil.find(C.From);
    if (It != S->DeadUntil.end() && C.Now < It->second)
      A.Drop = true;
    return A;
  };

  const uint64_t SchedLostBefore =
      metrics().snapshot().counterValue("psg.sched.lost_simulations");

  FabricOptions Fab;
  Fab.HeartbeatTimeoutSeconds = 0.05;
  Fab.MaxShardAttempts = 2;
  IndexedSink Sink(Points);
  DistributedRun R = runDistributed(Net, Sweep, "psg-engine", /*NumNodes=*/2,
                                    /*DevicesPerNode=*/1, Chunk, Sink, Fab,
                                    Script);

  EXPECT_EQ(S->Fired, 2u); // Initial grant + one re-grant.
  EXPECT_EQ(R.Report.NodeDeaths, 2u);
  EXPECT_EQ(R.Report.Requeues, 1u);
  EXPECT_EQ(R.Report.LostSimulations, Points);
  EXPECT_EQ(R.Report.Stream.Simulations, Points);
  EXPECT_EQ(R.Report.Stream.Failures, Points);
  // The sched-wide loss counter is the cross-layer acceptance oracle.
  EXPECT_EQ(R.Report.Stream.Metrics.counterValue("psg.sched.lost_simulations"),
            SchedLostBefore + Points);
  for (size_t I = 0; I < Points; ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
    EXPECT_EQ(Sink.Outcomes[I].Result.Status, IntegrationStatus::Aborted)
        << "sim " << I;
    EXPECT_NE(Sink.Outcomes[I].Result.Detail.find("shard dropped"),
              std::string::npos)
        << "sim " << I;
  }
}

TEST(FabricTest, ComputeLongerThanHeartbeatTimeoutIsNotAFalseDeath) {
  // A grant whose local compute outlasts HeartbeatTimeoutSeconds must
  // not get its node declared dead: the worker pumps heartbeats from a
  // side thread while its blocking executor runs. Without the pump,
  // every node silently computing past the timeout is killed, its
  // shards re-queue, and a healthy sweep can collapse into Aborted
  // outcomes via the stall ladder.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 16;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  LoopbackFabric Fabric;
  std::unique_ptr<FabricEndpoint> CoordEp =
      Fabric.createEndpoint(CoordinatorNode);
  std::unique_ptr<FabricEndpoint> WorkerEp = Fabric.createEndpoint(1);
  std::thread Worker([&] {
    SchedOptions Local;
    Local.Devices = {"psg-engine"};
    Local.WorkersPerDevice = 1;
    // Straggle (never kill) every local shard attempt for ~3x the
    // heartbeat timeout: the executor blocks the worker's event loop
    // far past the point the old code would have gone silent.
    Local.FaultInjector = [](size_t, unsigned, unsigned) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      return false;
    };
    NodeWorker W(CostModel::paperSetup(), *WorkerEp, Local, 0.01);
    W.serve(Net);
  });

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  FabricOptions Fab;
  Fab.Endpoint = CoordEp.get();
  Fab.Workers = {1};
  Fab.HeartbeatIntervalSeconds = 0.005;
  Fab.HeartbeatTimeoutSeconds = 0.05; // Far shorter than one compute.
  NodeCoordinator Coord(Opts, Fab);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  FabricScheduleReport R = Coord.streamParameterizations(Net, Source, Sink);
  Fabric.shutdown();
  Worker.join();

  EXPECT_EQ(R.NodeDeaths, 0u);
  EXPECT_EQ(R.Requeues, 0u);
  EXPECT_EQ(R.LostSimulations, 0u);
  EXPECT_EQ(R.Stream.Simulations, Points);
  EXPECT_EQ(R.Stream.Failures, 0u);
  EXPECT_TRUE(Sink.Monotone);
  expectBitExact(Sink, Reference, "long compute");
}

TEST(FabricTest, MismatchedOutcomeCountBatchesAreDropped) {
  // An OutcomeBatch whose outcome count disagrees with the shard's cut
  // would corrupt the ledger's ordered-flush cursor and the resident
  // accounting; the coordinator must drop it and stay correct when the
  // (well-formed) answer arrives afterwards.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 8; // Exactly one shard.
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  LoopbackFabric Fabric;
  std::unique_ptr<FabricEndpoint> CoordEp =
      Fabric.createEndpoint(CoordinatorNode);
  std::unique_ptr<FabricEndpoint> WorkerEp = Fabric.createEndpoint(1);

  // A hand-rolled worker that adopts the grant and answers twice: first
  // with one outcome too few (must be dropped), then with the correct
  // count (must be delivered exactly once).
  std::thread Worker([&] {
    HelloMsg Hello;
    Hello.Node = 1;
    WorkerEp->send(CoordinatorNode, encodeHello(Hello));
    for (;;) {
      ReceivedFrame RF;
      const PollStatus Ps = WorkerEp->poll(RF, 0.05);
      if (Ps == PollStatus::Closed)
        return;
      if (Ps == PollStatus::Timeout) {
        HeartbeatMsg Hb;
        Hb.Node = 1;
        WorkerEp->send(CoordinatorNode, encodeHeartbeat(Hb));
        continue;
      }
      ErrorOr<FrameView> View = parseFrame(RF.Bytes);
      ASSERT_TRUE(View.ok());
      if (View->Type == MessageType::NodeGoodbye)
        return;
      if (View->Type != MessageType::ShardGrant)
        continue;
      ErrorOr<ShardGrantMsg> G = decodeShardGrant(*View);
      ASSERT_TRUE(G.ok());
      OutcomeBatchMsg B;
      B.ShardId = G->ShardId;
      B.Epoch = G->Epoch;
      B.First = G->First;
      B.Node = 1;
      B.Outcomes.resize(G->RateConstantSets.size() - 1); // Short by one.
      WorkerEp->send(CoordinatorNode, encodeOutcomeBatch(B));
      B.Outcomes.resize(G->RateConstantSets.size());
      WorkerEp->send(CoordinatorNode, encodeOutcomeBatch(B));
    }
  });

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  FabricOptions Fab;
  Fab.Endpoint = CoordEp.get();
  Fab.Workers = {1};
  Fab.HeartbeatIntervalSeconds = 0.005;
  NodeCoordinator Coord(Opts, Fab);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  FabricScheduleReport R = Coord.streamParameterizations(Net, Source, Sink);
  Fabric.shutdown();
  Worker.join();

  EXPECT_EQ(R.Stream.Simulations, Points);
  EXPECT_EQ(R.LostSimulations, 0u);
  EXPECT_EQ(R.DuplicateBatches, 0u); // Dropped before the ledger, not after.
  for (size_t I = 0; I < Points; ++I)
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
}

TEST(FabricTest, FaultScriptsAreContentKeyedAndCounted) {
  // The loopback transport's own counters: a script that drops one
  // specific frame kind is observable without touching the scheduler.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 16;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  LoopbackFabric Fabric;
  uint64_t AcksSeen = 0;
  Fabric.setFaultScript([&AcksSeen](const FaultContext &C) {
    FaultAction A;
    if (C.Frame.Type == MessageType::ShardAck) {
      ++AcksSeen;
      A.Drop = true; // Acks are advisory; dropping them must be benign.
    }
    return A;
  });
  std::unique_ptr<FabricEndpoint> CoordEp =
      Fabric.createEndpoint(CoordinatorNode);
  std::unique_ptr<FabricEndpoint> WorkerEp = Fabric.createEndpoint(1);
  std::thread Worker([&] {
    SchedOptions Local;
    Local.Devices = {"psg-engine"};
    Local.WorkersPerDevice = 1;
    NodeWorker W(CostModel::paperSetup(), *WorkerEp, Local, 0.01);
    W.serve(Net);
  });

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  FabricOptions Fab;
  Fab.Endpoint = CoordEp.get();
  Fab.Workers = {1};
  Fab.HeartbeatIntervalSeconds = 0.005;
  NodeCoordinator Coord(Opts, Fab);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  FabricScheduleReport Report =
      Coord.streamParameterizations(Net, Source, Sink);
  Fabric.shutdown();
  Worker.join();

  EXPECT_GE(AcksSeen, 1u);
  EXPECT_EQ(Fabric.framesDropped(), AcksSeen);
  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_EQ(Report.LostSimulations, 0u);
  for (size_t I = 0; I < Points; ++I)
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
}
