//===- tests/vgpu_test.cpp - Virtual GPU and cost model tests -------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "vgpu/CostModel.h"
#include "vgpu/DeviceSpec.h"
#include "vgpu/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
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

TEST(ThreadPoolTest, ResultsIndependentOfWorkerCount) {
  // The same loop over the same inputs yields identical bytes whatever
  // the number of host workers sharing its indices.
  const size_t N = 512;
  std::vector<double> Input(N);
  for (size_t I = 0; I < N; ++I)
    Input[I] = std::sin(static_cast<double>(I) * 0.01) + 1e-3;

  auto RunWith = [&](unsigned Workers) {
    ThreadPool Pool(Workers);
    std::vector<double> Data = Input;
    Pool.parallelFor(N, [&Data](size_t I) {
      double X = Data[I];
      for (int Step = 0; Step < 50; ++Step)
        X = X + 0.01 * (1.0 - X * X); // logistic-style update
      Data[I] = X;
    });
    return Data;
  };

  std::vector<double> One = RunWith(1);
  std::vector<double> Four = RunWith(4);
  EXPECT_EQ(std::memcmp(One.data(), Four.data(), N * sizeof(double)), 0);
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
