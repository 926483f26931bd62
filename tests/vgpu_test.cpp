//===- tests/vgpu_test.cpp - Virtual GPU and cost model tests -------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "device/HostRuntime.h"
#include "support/Metrics.h"
#include "vgpu/CostModel.h"
#include "vgpu/DeviceSpec.h"
#include "vgpu/ThreadPool.h"
#include "vgpu/VirtualDevice.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>

using namespace psg;

namespace {
/// A representative per-simulation workload for a model of size N = M.
SimulationWork workloadFor(size_t N, uint64_t Steps = 300) {
  SimulationWork W;
  W.NumSpecies = N;
  W.NumReactions = N;
  W.TotalFlops = static_cast<double>(Steps) * 8.0 * 6.0 *
                 static_cast<double>(N); // ~6 rhs/step, ~8 flops/ODE.
  W.MemTrafficBytes = static_cast<double>(Steps) * 64.0 *
                      static_cast<double>(N);
  W.StateBytes = 96.0 * static_cast<double>(N);
  W.ConstantBytes = 24.0 * static_cast<double>(N);
  W.Steps = Steps;
  W.KernelPhasesPerStep = 8;
  W.OutputSamples = 32;
  return W;
}
} // namespace

//===----------------------------------------------------------------------===//
// Device specs.
//===----------------------------------------------------------------------===//

TEST(DeviceSpecTest, TitanXShape) {
  DeviceSpec D = DeviceSpec::titanX();
  EXPECT_EQ(D.totalCores(), 3072u);
  EXPECT_NEAR(D.ClockGhz, 1.075, 1e-9);
  EXPECT_GT(D.peakFlops(), 1e11);
}

TEST(DeviceSpecTest, CpuCoreShape) {
  DeviceSpec D = DeviceSpec::cpuCore();
  EXPECT_EQ(D.totalCores(), 1u);
  EXPECT_NEAR(D.ClockGhz, 3.4, 1e-9);
}

//===----------------------------------------------------------------------===//
// Thread pool.
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  const size_t Count = 1000;
  std::vector<std::atomic<int>> Hits(Count);
  Pool.parallelFor(Count, [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
  ThreadPool Pool(2);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPoolTest, AccumulatesCorrectSum) {
  ThreadPool Pool(3);
  std::atomic<uint64_t> Sum{0};
  Pool.parallelFor(501, [&](size_t I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 500u * 501u / 2u);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  for (int Round = 0; Round < 10; ++Round)
    Pool.parallelFor(10, [&](size_t) { ++Counter; });
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPoolTest, WorkerCountDefaultsPositive) {
  ThreadPool Pool;
  EXPECT_GE(Pool.numWorkers(), 1u);
}

TEST(ThreadPoolTest, WorkerIndexedOverloadRunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  // Mixed chunk sizes: tiny counts exercise the one-index-per-chunk path,
  // large counts the static chunking.
  for (size_t Count : {size_t(1), size_t(7), size_t(64), size_t(1000),
                       size_t(4097)}) {
    std::vector<std::atomic<int>> Hits(Count);
    std::atomic<bool> WorkerInRange{true};
    Pool.parallelFor(Count, [&](size_t I, unsigned Worker) {
      ++Hits[I];
      if (Worker >= Pool.parallelism())
        WorkerInRange = false;
    });
    for (size_t I = 0; I < Count; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "count " << Count << " index " << I;
    EXPECT_TRUE(WorkerInRange.load());
  }
}

TEST(ThreadPoolTest, WorkerIndicesAreStableWithinOneBodyCall) {
  // A body never migrates between workers mid-call, so per-worker slots
  // indexed by the reported worker index must not be written concurrently.
  ThreadPool Pool(4);
  const size_t Count = 2000;
  std::vector<std::atomic<int>> InBody(Pool.parallelism());
  std::atomic<bool> Overlap{false};
  Pool.parallelFor(Count, [&](size_t, unsigned Worker) {
    if (InBody[Worker].fetch_add(1) != 0)
      Overlap = true;
    InBody[Worker].fetch_sub(1);
  });
  EXPECT_FALSE(Overlap.load());
}

TEST(ThreadPoolTest, ParallelismCountsCallerThread) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.parallelism(), Pool.numWorkers() + 1);
}

TEST(ThreadPoolTest, UtilizationCountsTheCallerAsCapacity) {
  // One busy participant out of two (the worker plus the caller) uses
  // half the pool, not all of it.
  ThreadPool Pool(1);
  Pool.parallelFor(1, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_LT(metrics().snapshot().gaugeValue("psg.vgpu.pool.utilization"),
            0.75);
}

//===----------------------------------------------------------------------===//
// Virtual device accounting.
//===----------------------------------------------------------------------===//

TEST(VirtualDeviceTest, LaunchRecordsGeometry) {
  VirtualDevice Dev(DeviceSpec::titanX(), 2);
  std::atomic<uint64_t> Touched{0};
  LaunchRecord R = Dev.launchKernel("probe", 100, 32, [&](KernelContext &C) {
    ++Touched;
    EXPECT_LT(C.threadIndex(), 100u);
    EXPECT_EQ(C.gridSize(), 100u);
    EXPECT_EQ(C.blockDim(), 32u);
    EXPECT_EQ(C.blockIndex(), C.threadIndex() / 32);
  });
  EXPECT_EQ(Touched.load(), 100u);
  EXPECT_EQ(R.LogicalThreads, 100u);
  EXPECT_EQ(R.Blocks, 4u);  // ceil(100/32)
  EXPECT_EQ(R.Warps, 4u);
  EXPECT_EQ(Dev.counters().KernelLaunches, 1u);
  EXPECT_EQ(Dev.counters().LogicalThreadsRun, 100u);
}

TEST(VirtualDeviceTest, ChildGridsAreCounted) {
  VirtualDevice Dev(DeviceSpec::titanX(), 1);
  LaunchRecord R =
      Dev.launchKernel("parent", 8, 8, [&](KernelContext &C) {
        std::atomic<uint64_t> Sum{0};
        C.launchChildGrid(4, [&](uint64_t I) { Sum += I; });
        EXPECT_EQ(Sum.load(), 6u);
      });
  EXPECT_EQ(R.ChildGrids, 8u);
  EXPECT_EQ(Dev.counters().ChildGridLaunches, 8u);
}

TEST(VirtualDeviceTest, EveryLogicalThreadRunsOnce) {
  VirtualDevice Dev(DeviceSpec::titanX(), 3);
  const uint64_t N = 777;
  std::vector<std::atomic<int>> Hits(N);
  Dev.launchKernel("coverage", N, 32, [&](KernelContext &Ctx) {
    ++Hits[Ctx.threadIndex()];
    EXPECT_LT(Ctx.workerIndex(), Dev.hostParallelism());
    EXPECT_EQ(Ctx.gridSize(), N);
  });
  for (uint64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

TEST(VirtualDeviceTest, ResultsIndependentOfWorkerCount) {
  // The same kernel over the same inputs yields identical bytes whatever
  // the number of host workers multiplexing its logical threads.
  const size_t N = 512;
  std::vector<double> Input(N);
  for (size_t I = 0; I < N; ++I)
    Input[I] = std::sin(static_cast<double>(I) * 0.01) + 1e-3;

  auto RunWith = [&](unsigned Workers) {
    VirtualDevice Dev(DeviceSpec::titanX(), Workers);
    std::vector<double> Data = Input;
    Dev.launchKernel("stiff-ish", N, 32, [&Data](KernelContext &Ctx) {
      double X = Data[Ctx.threadIndex()];
      for (int Step = 0; Step < 50; ++Step)
        X = X + 0.01 * (1.0 - X * X); // logistic-style update
      Data[Ctx.threadIndex()] = X;
    });
    return Data;
  };

  std::vector<double> One = RunWith(1);
  std::vector<double> Four = RunWith(4);
  EXPECT_EQ(std::memcmp(One.data(), Four.data(), N * sizeof(double)), 0);
}

//===----------------------------------------------------------------------===//
// Host-runtime conformance: the same contracts through the off-path
// DeviceRuntime interface. The full suite lives in
// device_runtime_test.cpp; these cases pin the HostRuntime ↔
// VirtualDevice equivalences specifically.
//===----------------------------------------------------------------------===//

TEST(HostRuntimeConformanceTest, StreamOpsRunInFifoOrder) {
  HostRuntime RT(DeviceSpec::titanX(), 2);
  auto S = RT.createStream("fifo");
  std::vector<int> Order;
  S->hostTask("a", [&] { Order.push_back(1); });
  S->launch({"k", 4, 32}, [&](KernelContext &C) {
    if (C.threadIndex() == 0) {
      static std::mutex M;
      std::lock_guard<std::mutex> Lock(M);
      Order.push_back(2);
    }
  });
  S->hostTask("b", [&] { Order.push_back(3); });
  S->synchronize();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
}

TEST(HostRuntimeConformanceTest, EventWaitBeforeRecordDoesNotBlock) {
  HostRuntime RT(DeviceSpec::titanX(), 1);
  auto S = RT.createStream("ev");
  auto E = RT.createEvent();
  S->wait(*E); // Never recorded: must be a no-op, per CUDA semantics.
  bool Ran = false;
  S->hostTask("after", [&] { Ran = true; });
  S->synchronize();
  EXPECT_TRUE(Ran);
  S->record(*E);
  EXPECT_TRUE(E->recorded());
  EXPECT_EQ(RT.counters().EventWaits, 1u);
  EXPECT_EQ(RT.counters().EventsRecorded, 1u);
}

TEST(HostRuntimeConformanceTest, BufferRoundTripPreservesNanAndSignedZero) {
  HostRuntime RT(DeviceSpec::titanX(), 1);
  auto S = RT.createStream("xfer");
  std::vector<double> Src = {-0.0, 0.0,
                             std::numeric_limits<double>::quiet_NaN()};
  uint64_t PayloadNaN = 0x7ff40123456789abull;
  std::memcpy(&Src[2], &PayloadNaN, sizeof(double));
  auto Buf = RT.allocateArray<double>(Src.size());
  uploadArray(*S, *Buf, Src.data(), Src.size());
  std::vector<double> Dst(Src.size(), 7.0);
  downloadArray(*S, *Buf, Dst.data(), Dst.size());
  S->synchronize();
  EXPECT_EQ(std::memcmp(Src.data(), Dst.data(), Src.size() * sizeof(double)),
            0);
  EXPECT_TRUE(std::signbit(Dst[0]));
  EXPECT_FALSE(std::signbit(Dst[1]));
}

TEST(HostRuntimeConformanceTest, CountersAfterNestedChildGrids) {
  HostRuntime RT(DeviceSpec::titanX(), 1);
  // Parent grid of 6 threads, each launching one child grid of 5: the
  // runtime's device counters must match direct VirtualDevice use.
  std::atomic<uint64_t> ChildThreads{0};
  LaunchRecord R = RT.launchKernel({"parent", 6, 2}, [&](KernelContext &C) {
    ChildThreads += C.launchChildGrid(5, [](uint64_t) {});
  });
  EXPECT_EQ(R.ChildGrids, 6u);
  EXPECT_EQ(ChildThreads.load(), 30u);
  EXPECT_EQ(RT.deviceCounters().ChildGridLaunches, 6u);
  EXPECT_EQ(RT.deviceCounters().KernelLaunches, 1u);
  EXPECT_EQ(RT.counters().KernelLaunches, 1u);

  VirtualDevice Direct(DeviceSpec::titanX(), 1);
  Direct.launchKernel("parent", 6, 2, [&](KernelContext &C) {
    C.launchChildGrid(5, [](uint64_t) {});
  });
  EXPECT_EQ(Direct.counters().ChildGridLaunches,
            RT.deviceCounters().ChildGridLaunches);
  EXPECT_EQ(Direct.counters().LogicalThreadsRun,
            RT.deviceCounters().LogicalThreadsRun);
}

//===----------------------------------------------------------------------===//
// Cost model: qualitative properties of the evaluation's shape.
//===----------------------------------------------------------------------===//

TEST(CostModelTest, BackendNamesAreStable) {
  // Every enum member is pinned: backendName is an exhaustive switch (a
  // new Backend without a name fails to compile), and these strings are
  // load-bearing in metrics JSON.
  EXPECT_STREQ(backendName(Backend::CpuSerial), "cpu-serial");
  EXPECT_STREQ(backendName(Backend::GpuCoarse), "gpu-coarse");
  EXPECT_STREQ(backendName(Backend::GpuFine), "gpu-fine");
  EXPECT_STREQ(backendName(Backend::GpuFineCoarse), "gpu-fine-coarse");
}

TEST(CostModelTest, CpuTimeScalesLinearlyWithBatch) {
  CostModel M = CostModel::paperSetup();
  SimulationWork W = workloadFor(64);
  const double T1 = M.integrationTime(Backend::CpuSerial, W, 1).total();
  const double T64 = M.integrationTime(Backend::CpuSerial, W, 64).total();
  EXPECT_NEAR(T64 / T1, 64.0, 1.0);
}

TEST(CostModelTest, CpuWinsSingleSmallSimulation) {
  CostModel M = CostModel::paperSetup();
  SimulationWork W = workloadFor(16);
  const double Cpu = M.simulationTime(Backend::CpuSerial, W, 1).total();
  const double FineCoarse =
      M.simulationTime(Backend::GpuFineCoarse, W, 1).total();
  const double Fine = M.simulationTime(Backend::GpuFine, W, 1).total();
  EXPECT_LT(Cpu, FineCoarse);
  EXPECT_LT(Cpu, Fine);
}

TEST(CostModelTest, FineCoarseWinsLargeBatchOfLargeModels) {
  CostModel M = CostModel::paperSetup();
  SimulationWork W = workloadFor(256);
  const uint64_t Batch = 512;
  const double FineCoarse =
      M.simulationTime(Backend::GpuFineCoarse, W, Batch).total();
  EXPECT_LT(FineCoarse,
            M.simulationTime(Backend::CpuSerial, W, Batch).total());
  EXPECT_LT(FineCoarse,
            M.simulationTime(Backend::GpuCoarse, W, Batch).total());
  EXPECT_LT(FineCoarse,
            M.simulationTime(Backend::GpuFine, W, Batch).total());
}

TEST(CostModelTest, CoarseBenefitsFromFastMemoryOnSmallModels) {
  CostModel M = CostModel::paperSetup();
  SimulationWork Small = workloadFor(16);
  SimulationWork Large = workloadFor(16);
  // Same work, but pretend the encoding/state no longer fit fast memory.
  Large.ConstantBytes = 1e9;
  Large.StateBytes = 1e9;
  const double Fast =
      M.integrationTime(Backend::GpuCoarse, Small, 128).MemorySeconds;
  const double Slow =
      M.integrationTime(Backend::GpuCoarse, Large, 128).MemorySeconds;
  EXPECT_LT(Fast, Slow);
}

TEST(CostModelTest, DpPenaltyShape) {
  CostModel M = CostModel::paperSetup();
  EXPECT_DOUBLE_EQ(M.dpPenalty(1), 1.0);
  EXPECT_DOUBLE_EQ(M.dpPenalty(512), 1.0);
  EXPECT_GT(M.dpPenalty(1024), 1.0);
  EXPECT_LT(M.dpPenalty(1024), M.dpPenalty(2048) + 1e-12);
  EXPECT_GT(M.dpPenalty(4096), M.dpPenalty(2048));
  // Beyond the hard limit the climb is steep.
  EXPECT_GT(M.dpPenalty(8192) - M.dpPenalty(4096),
            M.dpPenalty(2048) - M.dpPenalty(1024));
}

TEST(CostModelTest, ThroughputSaturatesBeyond2048Simulations) {
  // The per-simulation modeled time should worsen past the DP hard limit.
  CostModel M = CostModel::paperSetup();
  SimulationWork W = workloadFor(128);
  auto PerSim = [&](uint64_t Batch) {
    return M.integrationTime(Backend::GpuFineCoarse, W, Batch)
               .LaunchSeconds;
  };
  EXPECT_GT(PerSim(8192), PerSim(512));
}

TEST(CostModelTest, SimulationTimeIncludesIoOnTopOfIntegration) {
  CostModel M = CostModel::paperSetup();
  SimulationWork W = workloadFor(64);
  for (Backend B : {Backend::CpuSerial, Backend::GpuCoarse,
                    Backend::GpuFine, Backend::GpuFineCoarse})
    EXPECT_GE(M.simulationTime(B, W, 64).total(),
              M.integrationTime(B, W, 64).total())
        << backendName(B);
}

TEST(CostModelTest, AsymmetricModelsUnderuseFineParallelism) {
  // M >> N: the fine-grained width is the species count, so at equal
  // total work a reaction-heavy model (few species, long ODEs) computes
  // slower than a square one (the paper's asymmetric-model effect).
  CostModel M = CostModel::paperSetup();
  SimulationWork Square = workloadFor(256);
  SimulationWork ReactionHeavy = workloadFor(64);
  ReactionHeavy.NumReactions = 640;
  ReactionHeavy.TotalFlops = Square.TotalFlops;
  ReactionHeavy.MemTrafficBytes = Square.MemTrafficBytes;
  for (Backend B : {Backend::GpuFine, Backend::GpuFineCoarse})
    EXPECT_GT(M.integrationTime(B, ReactionHeavy, 1).ComputeSeconds,
              M.integrationTime(B, Square, 1).ComputeSeconds)
        << backendName(B);
  // The CPU has no fine-grained width: equal work, equal compute time.
  EXPECT_DOUBLE_EQ(
      M.integrationTime(Backend::CpuSerial, ReactionHeavy, 1)
          .ComputeSeconds,
      M.integrationTime(Backend::CpuSerial, Square, 1).ComputeSeconds);
}

TEST(CostModelTest, FineWidthIsCappedByModelSize) {
  // A 16-species model cannot use more fine-grained lanes than a
  // 512-species one; per-flop it must be slower.
  CostModel M = CostModel::paperSetup();
  SimulationWork Small = workloadFor(16);
  SimulationWork Big = workloadFor(512);
  const double SmallRate =
      Small.TotalFlops /
      M.integrationTime(Backend::GpuFine, Small, 1).ComputeSeconds;
  const double BigRate =
      Big.TotalFlops /
      M.integrationTime(Backend::GpuFine, Big, 1).ComputeSeconds;
  EXPECT_GT(BigRate, SmallRate);
}

TEST(CostModelTest, ModeledTimeTotalIsRoofPlusOverheads) {
  ModeledTime T;
  T.ComputeSeconds = 2.0;
  T.MemorySeconds = 3.0;
  T.LaunchSeconds = 0.5;
  T.HostSeconds = 0.25;
  EXPECT_DOUBLE_EQ(T.total(), 3.75);
}

TEST(CostModelTest, FastMemoryVariantHelpsOnlySmallModels) {
  // The future-work fine+coarse variant keeps small models in constant/
  // shared memory; large models cannot fit and see no change.
  CostModel::Tunables Knobs;
  Knobs.FineCoarseFastMemory = true;
  CostModel Fast(DeviceSpec::titanX(), DeviceSpec::cpuCore(), Knobs);
  CostModel Base = CostModel::paperSetup();
  SimulationWork Small = workloadFor(16);
  const double FastMem =
      Fast.integrationTime(Backend::GpuFineCoarse, Small, 128)
          .MemorySeconds;
  const double BaseMem =
      Base.integrationTime(Backend::GpuFineCoarse, Small, 128)
          .MemorySeconds;
  EXPECT_LT(FastMem, BaseMem);
  SimulationWork Large = workloadFor(16);
  Large.ConstantBytes = 1e9; // Does not fit constant memory.
  EXPECT_DOUBLE_EQ(
      Fast.integrationTime(Backend::GpuFineCoarse, Large, 128)
          .MemorySeconds,
      Base.integrationTime(Backend::GpuFineCoarse, Large, 128)
          .MemorySeconds);
}
