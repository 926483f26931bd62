//===- tests/sched_test.cpp - Multi-device scheduler tests ----------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// The sharding contract: a homogeneous sharded sweep is bit-exact with a
// single-device run whose SubBatchSize equals the shard chunk, for every
// personality and every device count; a shard attempt that dies
// mid-sweep is re-queued onto another device and every simulation is
// still delivered exactly once; a shard that exhausts its attempt budget
// surfaces as Aborted outcomes, never as a gap; idle devices steal
// queued work from stragglers; and a homogeneous fleet divides the
// modeled makespan among its devices.
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"
#include "core/ParameterSpace.h"
#include "sched/DeliveryLedger.h"
#include "sched/ShardedExecutor.h"
#include "sim/Oracle.h"

#include "rbm/CuratedModels.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <map>
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

/// The sweep every test shards: a one-axis Brusselator grid.
std::vector<Parameterization> makeSweep(const ParameterSpace &Space,
                                        size_t Points) {
  std::vector<Parameterization> Params;
  for (const std::vector<double> &P : Space.gridSample({Points}))
    Params.push_back(Space.applyPoint(P));
  return Params;
}

/// Pull-source over a materialized parameterization list.
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

/// Thread-safe sink that places every outcome at its global index and
/// counts deliveries per index, so exactly-once delivery is checkable
/// even under out-of-order completion.
class IndexedSink final : public OutcomeSink {
public:
  std::vector<SimulationOutcome> Outcomes;
  std::vector<unsigned> Deliveries;
  size_t LastFirst = 0;
  bool Monotone = true; ///< FirstIndex never decreased across calls.
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

/// Single-device reference outcomes with SubBatchSize == \p Chunk.
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

EngineOptions shardedEngineOptions(unsigned Devices,
                                   const std::string &Personality,
                                   uint64_t Chunk) {
  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  Opts.Sched.Devices.assign(Devices, Personality);
  Opts.Sched.ChunkSize = Chunk;
  Opts.Sched.WorkersPerDevice = 1;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bit-exact oracle: sharded == single-device for every personality and
// device count.
//===----------------------------------------------------------------------===//

TEST(ShardedExecutorTest, ShardedIsBitExactWithSingleDeviceOracle) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 24;
  const uint64_t Chunk = 8; // == SubBatchSize of the reference run.
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  for (const char *Personality : {"psg-engine", "cpu-lsoda", "cpu-vode",
                                  "gpu-coarse", "gpu-fine"}) {
    const std::vector<SimulationOutcome> Reference =
        referenceOutcomes(Net, Personality, Sweep, Chunk);
    ASSERT_EQ(Reference.size(), Points) << Personality;

    for (unsigned Devices : {1u, 2u, 4u}) {
      EngineOptions Opts = shardedEngineOptions(Devices, Personality, Chunk);
      ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
      EXPECT_EQ(Executor.numDevices(), Devices);
      for (unsigned D = 0; D < Devices; ++D)
        EXPECT_EQ(Executor.chunkFor(D), Chunk) << Personality;

      size_t Next = 0;
      ParameterizationSource Source = sourceOver(Sweep, Next);
      IndexedSink Sink(Points);
      const ShardScheduleReport Report =
          Executor.streamParameterizations(Net, nullptr, Source, Sink);

      EXPECT_EQ(Report.Stream.Simulations, Points) << Personality;
      EXPECT_EQ(Report.Shards, (Points + Chunk - 1) / Chunk) << Personality;
      EXPECT_EQ(Report.LostSimulations, 0u) << Personality;
      EXPECT_TRUE(Sink.Monotone) << Personality << ": ordered delivery";
      ASSERT_EQ(Report.Devices.size(), Devices);
      uint64_t DeviceSims = 0;
      for (const DeviceShardReport &D : Report.Devices) {
        DeviceSims += D.Simulations;
        EXPECT_GE(D.Utilization, 0.0);
        EXPECT_LE(D.Utilization, 1.0);
      }
      EXPECT_EQ(DeviceSims, Points) << Personality;
      EXPECT_GT(Report.ModeledMakespanSeconds, 0.0) << Personality;
      EXPECT_GE(Report.ShardImbalance, 0.0);
      EXPECT_LE(Report.ShardImbalance, 1.0);

      for (size_t I = 0; I < Points; ++I) {
        EXPECT_EQ(Sink.Deliveries[I], 1u)
            << Personality << " devices " << Devices << " sim " << I;
        Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
        EXPECT_TRUE(bool(S)) << Personality << " devices " << Devices
                             << " outcome " << I << ": " << S.message();
      }
    }
  }
}

TEST(ShardedExecutorTest, EngineShardedPathMatchesSingleDeviceRun) {
  // The BatchEngine front door: Sched.enabled() reroutes run() through
  // the executor; the materialized report must stay bit-exact.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 20;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", Chunk);
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  EngineReport Report = Engine.runParameterizations(Net, Sweep);
  ASSERT_EQ(Report.Outcomes.size(), Points);
  EXPECT_EQ(Report.Failures, 0u);
  for (size_t I = 0; I < Points; ++I) {
    Status S = compareOutcomesBitExact(Report.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
  }
  // Runs again to exercise the warm executor (persistent device fleet).
  EngineReport Again = Engine.runParameterizations(Net, Sweep);
  ASSERT_EQ(Again.Outcomes.size(), Points);
  for (size_t I = 0; I < Points; ++I) {
    Status S = compareOutcomesBitExact(Again.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "warm outcome " << I << ": " << S.message();
  }
}

//===----------------------------------------------------------------------===//
// Fault tolerance: bounded re-queue, exactly-once delivery.
//===----------------------------------------------------------------------===//

TEST(ShardedExecutorTest, KilledShardIsRequeuedAndRecoveredExactlyOnce) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 32;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", Chunk);
  // Kill the shard at index 8 on its first attempt, whichever device
  // drew it: it must be re-queued onto the other device and recovered.
  std::atomic<unsigned> Kills{0};
  Opts.Sched.FaultInjector = [&Kills](size_t FirstIndex, unsigned /*Device*/,
                                      unsigned Attempt) {
    if (FirstIndex == 8 && Attempt == 0) {
      ++Kills;
      return true;
    }
    return false;
  };
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);

  EXPECT_EQ(Kills.load(), 1u);
  EXPECT_EQ(Report.Requeues, 1u);
  EXPECT_EQ(Report.LostSimulations, 0u);
  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_EQ(Report.Stream.Failures, 0u);
  for (size_t I = 0; I < Points; ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
    Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
  }
}

TEST(ShardedExecutorTest, ExhaustedShardSurfacesAbortedNotAGap) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 32;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", Chunk);
  Opts.Sched.MaxShardAttempts = 2;
  // The shard at index 16 dies on *every* attempt: after the budget is
  // spent its simulations must arrive as Aborted outcomes exactly once.
  Opts.Sched.FaultInjector = [](size_t FirstIndex, unsigned, unsigned) {
    return FirstIndex == 16;
  };
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);

  EXPECT_EQ(Report.LostSimulations, Chunk);
  EXPECT_EQ(Report.Requeues, 1u); // Attempt 0 re-queued; attempt 1 gave up.
  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_EQ(Report.Stream.Failures, Chunk);
  for (size_t I = 0; I < Points; ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
    if (I >= 16 && I < 16 + Chunk) {
      EXPECT_EQ(Sink.Outcomes[I].Result.Status, IntegrationStatus::Aborted)
          << "sim " << I;
      EXPECT_FALSE(Sink.Outcomes[I].Result.Detail.empty());
    } else {
      Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
      EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
    }
  }
}

//===----------------------------------------------------------------------===//
// Work-stealing: an idle device drains a straggler's modeled backlog.
//===----------------------------------------------------------------------===//

TEST(ShardedExecutorTest, IdleDeviceStealsFromStraggler) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 64;
  const uint64_t Chunk = 4;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", Chunk);
  Opts.Sched.QueueDepth = 4;
  // Device 0 "dies" on every first attempt it draws: each of its shards
  // is re-queued onto device 1, piling up a modeled backlog there while
  // device 0's own virtual finish time stays low. Once the source is
  // dry, device 0 must steal that backlog back (the re-queued attempts
  // run fine anywhere — only attempt 0 on device 0 is killed). Device 1
  // straggles on every attempt so its backlog stays queued — and
  // stealable — past the dry point regardless of host thread timing.
  Opts.Sched.FaultInjector = [](size_t, unsigned Device, unsigned Attempt) {
    if (Device == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return false;
    }
    return Attempt == 0;
  };
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);

  EXPECT_GE(Report.Steals, 1u)
      << "device 0 never stole back the straggler's backlog";
  EXPECT_EQ(Report.LostSimulations, 0u);
  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_GE(Report.Requeues, 1u);
  // Stealing moves shards between identical devices, so the sweep stays
  // bit-exact regardless of who ran what.
  for (size_t I = 0; I < Points; ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
    Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
  }
}

//===----------------------------------------------------------------------===//
// Chunk sizing and configuration surface.
//===----------------------------------------------------------------------===//

TEST(ShardedExecutorTest, HeterogeneousFleetScalesChunksByThroughput) {
  EngineOptions Opts;
  Opts.SubBatchSize = 64;
  Opts.Sched.Devices = {"gpu-coarse", "cpu-lsoda"};
  Opts.Sched.WorkersPerDevice = 1;
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  // The modeled GPU is far faster than one CPU core: the CPU device gets
  // a smaller shard, a multiple of 8, never zero.
  EXPECT_EQ(Executor.chunkFor(0), 64u);
  EXPECT_LT(Executor.chunkFor(1), Executor.chunkFor(0));
  EXPECT_GE(Executor.chunkFor(1), 8u);
  EXPECT_EQ(Executor.chunkFor(1) % 8, 0u);
}

TEST(ShardedExecutorTest, CompletionOrderDeliveryStillExactlyOnce) {
  // OrderedDelivery off: sub-batches may arrive out of order, but every
  // simulation still lands exactly once at its own index.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 48;
  const uint64_t Chunk = 8;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);
  const std::vector<SimulationOutcome> Reference =
      referenceOutcomes(Net, "psg-engine", Sweep, Chunk);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", Chunk);
  Opts.Sched.OrderedDelivery = false;
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);

  EXPECT_EQ(Report.Stream.Simulations, Points);
  for (size_t I = 0; I < Points; ++I) {
    EXPECT_EQ(Sink.Deliveries[I], 1u) << "sim " << I;
    Status S = compareOutcomesBitExact(Sink.Outcomes[I], Reference[I]);
    EXPECT_TRUE(bool(S)) << "outcome " << I << ": " << S.message();
  }
}

TEST(ShardedExecutorTest, SchedMetricsAreExported) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const std::vector<Parameterization> Sweep = makeSweep(Space, 16);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", 4);
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(16);
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);

  const MetricsSnapshot &M = Report.Stream.Metrics;
  EXPECT_GE(M.counterValue("psg.sched.shards"), 4u);
  EXPECT_GE(M.counterValue("psg.sched.simulations"), 16u);
  const double Util = M.gaugeValue("psg.sched.device_utilization");
  EXPECT_GT(Util, 0.0);
  EXPECT_LE(Util, 1.0);
  EXPECT_DOUBLE_EQ(M.gaugeValue("psg.sched.shard_imbalance"),
                   Report.ShardImbalance);
  EXPECT_DOUBLE_EQ(M.gaugeValue("psg.sched.modeled_makespan_s"),
                   Report.ModeledMakespanSeconds);
}

TEST(ShardedExecutorTest, ModeledTransferPricesThePackedShardImage) {
  // Each shard moves its rate constants and initial states to the device
  // and one final time per simulation back, priced at the modeled PCIe
  // bandwidth. Shards retire in varying order, so the per-shard sum is
  // pinned to a relative tolerance rather than bit-exactly.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 20;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  EngineOptions Opts = shardedEngineOptions(2, "psg-engine", 8);
  const CostModel Model = CostModel::paperSetup();
  ShardedExecutor Executor(Model, Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  IndexedSink Sink(Points);
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);
  ASSERT_EQ(Report.LostSimulations, 0u);

  double Doubles = 0.0;
  for (const Parameterization &P : Sweep)
    Doubles += static_cast<double>(P.RateConstants.size() +
                                   P.InitialState.size() + 1);
  const double Expected =
      Doubles * sizeof(double) / (Model.tunables().PcieBandwidthGBs * 1e9);
  const MetricsSnapshot &M = Report.Stream.Metrics;
  const double Modeled = M.gaugeValue("psg.device.transfer_modeled_s");
  const double Hidden = M.gaugeValue("psg.device.transfer_hidden_s");
  EXPECT_NEAR(Modeled, Expected, 1e-12 * Expected);
  EXPECT_GT(Hidden, 0.0);
  EXPECT_LE(Hidden, Modeled);
}

//===----------------------------------------------------------------------===//
// Modeled scaling: the devices of a fleet run concurrently in the model,
// even where the host serializes them.
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

/// The measured sweep of \p Params on \p Devices gpu-coarse devices, one
/// host worker each, after a warm-up sweep on the same executor.
ShardScheduleReport scalingSweep(const ReactionNetwork &Net,
                                 const std::vector<Parameterization> &Params,
                                 unsigned Devices) {
  EngineOptions Opts = shardedEngineOptions(Devices, "gpu-coarse", 32);
  Opts.OutputSamples = 0;
  Opts.Solver.RelTol = 1e-6;
  Opts.Solver.AbsTol = 1e-9;
  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  ShardScheduleReport Report;
  for (int Pass = 0; Pass < 2; ++Pass) {
    size_t Next = 0;
    ParameterizationSource Source = sourceOver(Params, Next);
    IndexedSink Sink(Params.size());
    Report = Executor.streamParameterizations(Net, nullptr, Source, Sink);
  }
  return Report;
}

} // namespace

TEST(ShardedExecutorTest, HomogeneousFleetScalesModeledThroughput) {
  // Four identical devices must divide the modeled makespan: more than
  // 1.5x the one-device throughput, with the idlest device busy for at
  // least half of the busiest one's modeled time.
  const ReactionNetwork Brusselator = makeBrusselatorNetwork();
  const ReactionNetwork DecayChain = makeDecayChainNetwork(8, 0.5);
  for (const ReactionNetwork *Net : {&Brusselator, &DecayChain}) {
    const std::vector<Parameterization> Params = jitteredSweep(*Net, 512, 42);
    double OneDevice = 0.0;
    for (unsigned Devices : {1u, 4u}) {
      const std::string Tag =
          formatString("%s, %u device(s)", Net->name().c_str(), Devices);
      const ShardScheduleReport R = scalingSweep(*Net, Params, Devices);
      EXPECT_EQ(R.Stream.Simulations, Params.size()) << Tag;
      EXPECT_EQ(R.Stream.Failures, 0u) << Tag;
      EXPECT_EQ(R.LostSimulations, 0u) << Tag;
      EXPECT_LT(R.ShardImbalance, 0.5) << Tag;
      if (Devices == 1)
        OneDevice = R.modeledThroughputPerSecond();
      else
        EXPECT_GT(R.modeledThroughputPerSecond(), 1.5 * OneDevice) << Tag;
    }
  }
}

//===----------------------------------------------------------------------===//
// DeliveryLedger: the shared exactly-once / ordered-flush stage.
//===----------------------------------------------------------------------===//

namespace {

/// Records every (FirstIndex, size) delivery in call order.
class FlushLog final : public OutcomeSink {
public:
  std::vector<std::pair<size_t, size_t>> Calls;
  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Batch) override {
    Calls.emplace_back(FirstIndex, Batch.size());
  }
};

std::vector<SimulationOutcome> blankOutcomes(size_t N) {
  return std::vector<SimulationOutcome>(N);
}

} // namespace

TEST(DeliveryLedgerTest, OrderedFlushStaysContiguousUnderOutOfOrderAccepts) {
  DeliveryLedger Ledger(/*Ordered=*/true);
  FlushLog Sink;

  // Arrivals: 8, 16, 0, 4, 20, 12 (chunk 4). Flushes must start exactly
  // at the next undelivered index every time, with no gaps and no
  // overlap, whatever order the shards complete in.
  auto A = Ledger.accept(8, blankOutcomes(4), Sink);
  EXPECT_FALSE(A.Duplicate);
  EXPECT_EQ(A.FlushedSimulations, 0u);
  EXPECT_EQ(Ledger.pendingBatches(), 1u);

  A = Ledger.accept(16, blankOutcomes(4), Sink);
  EXPECT_EQ(A.FlushedSimulations, 0u);
  EXPECT_EQ(Ledger.pendingSimulations(), 8u);

  A = Ledger.accept(0, blankOutcomes(4), Sink);
  EXPECT_EQ(A.FlushedSimulations, 4u); // 0..3 only; 4..7 still missing.
  EXPECT_EQ(Ledger.nextToDeliver(), 4u);

  A = Ledger.accept(4, blankOutcomes(4), Sink);
  EXPECT_EQ(A.FlushedSimulations, 8u); // 4..7 plus buffered 8..11.
  EXPECT_EQ(Ledger.nextToDeliver(), 12u);

  A = Ledger.accept(20, blankOutcomes(4), Sink);
  EXPECT_EQ(A.FlushedSimulations, 0u);

  A = Ledger.accept(12, blankOutcomes(4), Sink);
  EXPECT_EQ(A.FlushedSimulations, 12u); // 12..23 drains everything.
  EXPECT_EQ(Ledger.nextToDeliver(), 24u);
  EXPECT_EQ(Ledger.deliveredSimulations(), 24u);
  EXPECT_EQ(Ledger.pendingBatches(), 0u);
  EXPECT_EQ(Ledger.pendingSimulations(), 0u);

  // The sink saw ascending contiguous sub-batches and nothing else.
  size_t Expected = 0;
  for (const auto &[First, Size] : Sink.Calls) {
    EXPECT_EQ(First, Expected);
    Expected = First + Size;
  }
  EXPECT_EQ(Expected, 24u);
}

TEST(DeliveryLedgerTest, DuplicateShardsAreDroppedWhole) {
  for (const bool Ordered : {true, false}) {
    DeliveryLedger Ledger(Ordered);
    FlushLog Sink;
    EXPECT_FALSE(Ledger.accept(0, blankOutcomes(4), Sink).Duplicate);
    EXPECT_TRUE(Ledger.accept(0, blankOutcomes(4), Sink).Duplicate)
        << "ordered " << Ordered;
    // A duplicate of a still-buffered shard is dropped too.
    EXPECT_FALSE(Ledger.accept(8, blankOutcomes(4), Sink).Duplicate);
    EXPECT_TRUE(Ledger.accept(8, blankOutcomes(4), Sink).Duplicate)
        << "ordered " << Ordered;
    EXPECT_FALSE(Ledger.accept(4, blankOutcomes(4), Sink).Duplicate);
    EXPECT_EQ(Ledger.deliveredSimulations(), 12u) << "ordered " << Ordered;
    size_t Sum = 0;
    for (const auto &[First, Size] : Sink.Calls)
      Sum += Size;
    EXPECT_EQ(Sum, 12u) << "ordered " << Ordered;
  }
}

TEST(DeliveryLedgerTest, UnorderedModeDeliversImmediatelyAndRecycles) {
  DeliveryLedger Ledger(/*Ordered=*/false);
  FlushLog Sink;
  std::vector<SimulationOutcome> Recycle;
  auto A = Ledger.accept(12, blankOutcomes(4), Sink, &Recycle);
  EXPECT_FALSE(A.Duplicate);
  EXPECT_EQ(A.FlushedSimulations, 4u);
  EXPECT_EQ(Sink.Calls.size(), 1u);
  EXPECT_EQ(Sink.Calls[0].first, 12u);
  EXPECT_GE(Recycle.capacity(), 4u); // The consumed buffer came back.
  EXPECT_EQ(Ledger.pendingBatches(), 0u);
}

TEST(ShardedExecutorTest, OrderedDeliveryFlushesContiguouslyOutOfOrder) {
  // Regression for the pending-map flush: a slow personality next to
  // three fast ones completes shards far out of order, yet with
  // OrderedDelivery every sink call must start exactly at the next
  // undelivered global index.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 64;
  const uint64_t Chunk = 4;
  const std::vector<Parameterization> Sweep = makeSweep(Space, Points);

  EngineOptions Opts;
  Opts.SubBatchSize = Chunk;
  Opts.EndTime = 2.0;
  Opts.OutputSamples = 3;
  Opts.Sched.Devices = {"cpu-lsoda", "psg-engine", "psg-engine",
                        "psg-engine"};
  Opts.Sched.ChunkSize = Chunk;
  Opts.Sched.WorkersPerDevice = 1;
  Opts.Sched.OrderedDelivery = true;

  class ContiguousSink final : public OutcomeSink {
  public:
    size_t Expected = 0;
    size_t Calls = 0;
    bool Contiguous = true;
    void consumeSubBatch(size_t FirstIndex,
                         std::vector<SimulationOutcome> &Batch) override {
      if (FirstIndex != Expected)
        Contiguous = false;
      Expected = FirstIndex + Batch.size();
      ++Calls;
    }
  };

  ShardedExecutor Executor(CostModel::paperSetup(), Opts, Opts.Sched);
  size_t Next = 0;
  ParameterizationSource Source = sourceOver(Sweep, Next);
  ContiguousSink Sink;
  const ShardScheduleReport Report =
      Executor.streamParameterizations(Net, nullptr, Source, Sink);

  EXPECT_TRUE(Sink.Contiguous)
      << "an ordered flush skipped or repeated an index";
  EXPECT_EQ(Sink.Expected, Points) << "stream ended short";
  EXPECT_GE(Sink.Calls, Points / Chunk / 2) << "suspiciously few flushes";
  EXPECT_EQ(Report.Stream.Simulations, Points);
  EXPECT_EQ(Report.LostSimulations, 0u);
}
