//===- vgpu/CostModel.cpp -------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "vgpu/CostModel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace psg;

const char *psg::backendName(Backend B) {
  // Exhaustive, no default: adding a Backend member without a name here
  // is a compile error (-Wswitch under -Werror), not a misreported
  // "unknown" string in metrics JSON.
  switch (B) {
  case Backend::CpuSerial:
    return "cpu-serial";
  case Backend::GpuCoarse:
    return "gpu-coarse";
  case Backend::GpuFine:
    return "gpu-fine";
  case Backend::GpuFineCoarse:
    return "gpu-fine-coarse";
  }
  __builtin_unreachable();
}

namespace {
/// Rounds a thread count up to whole warps.
uint64_t warpAligned(uint64_t Threads, unsigned WarpSize) {
  if (Threads == 0)
    return 0;
  const uint64_t Warps = (Threads + WarpSize - 1) / WarpSize;
  return Warps * WarpSize;
}
} // namespace

double CostModel::dpPenalty(uint64_t ConcurrentChildren) const {
  if (ConcurrentChildren <= Knobs.DpSoftLimit)
    return 1.0;
  if (ConcurrentChildren <= Knobs.DpHardLimit) {
    const double Frac =
        static_cast<double>(ConcurrentChildren - Knobs.DpSoftLimit) /
        static_cast<double>(Knobs.DpHardLimit - Knobs.DpSoftLimit);
    return 1.0 + Knobs.DpSoftSlope * Frac;
  }
  const double Over =
      static_cast<double>(ConcurrentChildren - Knobs.DpHardLimit) /
      static_cast<double>(Knobs.DpHardLimit);
  return 1.0 + Knobs.DpSoftSlope + Knobs.DpHardCoeff * Over * Over;
}

ModeledTime CostModel::cpuSerial(const SimulationWork &Work,
                                 uint64_t Batch) const {
  ModeledTime T;
  const double B = static_cast<double>(Batch);
  T.ComputeSeconds = B * Work.TotalFlops / Cpu.peakFlops();
  // The working set is cache-resident on the CPU for the model sizes of
  // the evaluation; memory time is folded into the effective issue rate.
  T.MemorySeconds = 0.0;
  T.HostSeconds = B * Knobs.CpuPerSimOverheadSec;
  return T;
}

ModeledTime CostModel::gpuCoarse(const SimulationWork &Work,
                                 uint64_t Batch) const {
  ModeledTime T;
  const double B = static_cast<double>(Batch);
  const uint64_t Lanes =
      std::min<uint64_t>(warpAligned(Batch, Gpu.WarpSize), Gpu.totalCores());
  const double CoreFlops = Gpu.ClockGhz * 1e9 * Gpu.IssueRate;
  T.ComputeSeconds = B * Work.TotalFlops /
                     (static_cast<double>(Lanes) * CoreFlops) *
                     Knobs.CoarseDivergence;

  // Each thread streams its private state from memory. Small models whose
  // encoding fits constant memory and whose state fits shared memory get
  // cupSODA's fast-memory bonus.
  const bool FitsFastMemory =
      Work.ConstantBytes <= static_cast<double>(Gpu.ConstantMemBytes) &&
      Work.StateBytes * static_cast<double>(std::min<uint64_t>(
                            Batch, Gpu.MaxThreadsPerSm)) <=
          static_cast<double>(Gpu.SharedMemPerSmBytes) *
              static_cast<double>(Gpu.Sms);
  const double Efficiency =
      FitsFastMemory ? 1.0 : Knobs.CoarseCoalescing;
  double MemSeconds =
      B * Work.MemTrafficBytes / (Gpu.GlobalBandwidthGBs * 1e9 * Efficiency);
  if (FitsFastMemory)
    MemSeconds *= Knobs.SharedMemoryBonus;
  T.MemorySeconds = MemSeconds;

  T.LaunchSeconds = Gpu.KernelLaunchUs * 1e-6;
  return T;
}

ModeledTime CostModel::gpuFine(const SimulationWork &Work,
                               uint64_t Batch) const {
  ModeledTime T;
  const double B = static_cast<double>(Batch);
  // One simulation at a time: parallel width is the ODE count, capped by
  // the device and discounted by the fine kernels' register pressure.
  const double Width = std::min<double>(
      static_cast<double>(warpAligned(Work.NumSpecies, Gpu.WarpSize)),
      static_cast<double>(Gpu.totalCores()) * Knobs.FineOccupancy);
  const double CoreFlops = Gpu.ClockGhz * 1e9 * Gpu.IssueRate;
  T.ComputeSeconds = B * Work.TotalFlops / (Width * CoreFlops);
  T.MemorySeconds = B * Work.MemTrafficBytes /
                    (Gpu.GlobalBandwidthGBs * 1e9 * Knobs.FineCoalescing);
  // Every integration step issues a pipeline of host-launched kernels.
  T.LaunchSeconds = B * static_cast<double>(Work.Steps) *
                    static_cast<double>(Work.KernelPhasesPerStep) *
                    (Gpu.KernelLaunchUs + Gpu.SyncPointUs) * 1e-6;
  return T;
}

ModeledTime CostModel::gpuFineCoarse(const SimulationWork &Work,
                                     uint64_t Batch) const {
  ModeledTime T;
  const double B = static_cast<double>(Batch);
  const double CoreFlops = Gpu.ClockGhz * 1e9 * Gpu.IssueRate;
  // Both levels at once: batch x species threads, capped by the device.
  const uint64_t Requested =
      warpAligned(Work.NumSpecies, Gpu.WarpSize) * Batch;
  const double Width = std::min<double>(
      static_cast<double>(Requested),
      static_cast<double>(Gpu.totalCores()) * Knobs.FineOccupancy);
  T.ComputeSeconds = B * Work.TotalFlops / (Width * CoreFlops) *
                     Knobs.FineCoarseDivergence;
  T.MemorySeconds = B * Work.MemTrafficBytes /
                    (Gpu.GlobalBandwidthGBs * 1e9 * Knobs.FineCoalescing);
  if (Knobs.FineCoarseFastMemory &&
      Work.ConstantBytes <= static_cast<double>(Gpu.ConstantMemBytes) &&
      Work.StateBytes * static_cast<double>(std::min<uint64_t>(
                            Batch, Gpu.MaxThreadsPerSm)) <=
          static_cast<double>(Gpu.SharedMemPerSmBytes) *
              static_cast<double>(Gpu.Sms)) {
    // Future-work variant: small models live in constant/shared memory.
    T.MemorySeconds *= Knobs.SharedMemoryBonus;
  }

  // Dynamic parallelism: each simulation's step chain issues its child
  // grids serially (a latency bound independent of the batch), and the
  // device can only retire a bounded number of concurrent child launches
  // (a throughput bound that the saturation penalty inflates -- the
  // paper's >512 / >2048 launch-time cliff).
  const double Penalty = dpPenalty(Batch);
  const double ChainLaunches =
      static_cast<double>(Work.Steps) *
      static_cast<double>(Work.KernelPhasesPerStep);
  const double ChainLatency = ChainLaunches * Gpu.ChildLaunchUs * 1e-6;
  const double QueueTime = B * ChainLaunches * Gpu.ChildLaunchUs * 1e-6 *
                           Penalty / Knobs.DpLaunchSlots;
  T.LaunchSeconds =
      std::max(ChainLatency, QueueTime) + Gpu.KernelLaunchUs * 1e-6;
  return T;
}

ModeledTime CostModel::integrationTime(Backend B, const SimulationWork &Work,
                                       uint64_t Batch) const {
  assert(Batch > 0 && "empty batch");
  switch (B) {
  case Backend::CpuSerial:
    return cpuSerial(Work, Batch);
  case Backend::GpuCoarse:
    return gpuCoarse(Work, Batch);
  case Backend::GpuFine:
    return gpuFine(Work, Batch);
  case Backend::GpuFineCoarse:
    return gpuFineCoarse(Work, Batch);
  }
  return ModeledTime();
}

ModeledTime CostModel::simulationTime(Backend B, const SimulationWork &Work,
                                      uint64_t Batch) const {
  ModeledTime T = integrationTime(B, Work, Batch);
  const double BatchD = static_cast<double>(Batch);
  const double SampleBytes =
      static_cast<double>(Work.OutputSamples) *
      static_cast<double>(Work.NumSpecies) * sizeof(double);
  if (B == Backend::CpuSerial) {
    // Results are already in host memory; charge a stream-to-disk cost at
    // the CPU copy bandwidth.
    T.HostSeconds += BatchD * SampleBytes / (Cpu.GlobalBandwidthGBs * 1e9);
    return T;
  }
  // GPU paths: one-time model encoding plus PCIe write-back of dynamics.
  T.HostSeconds += Knobs.BatchSetupSec +
                   BatchD * SampleBytes / (Knobs.PcieBandwidthGBs * 1e9);
  return T;
}
