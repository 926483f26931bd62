//===- vgpu/DeviceSpec.h - Execution architecture descriptions --*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Architecture descriptions for the virtual GPU substrate. No physical
/// GPU is present in the reproduction environment, so hardware timing is
/// *modeled*: real integrations produce exact operation counts, and a
/// DeviceSpec turns those counts into modeled seconds through the cost
/// model in vgpu/CostModel.h. The default GPU spec matches the paper-era
/// Nvidia GTX Titan X; the CPU spec matches the Intel i7-2600 baseline.
/// Calibration constants (IPC, divergence, launch overheads) are chosen
/// to reproduce the published crossovers and are documented in
/// EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_VGPU_DEVICESPEC_H
#define PSG_VGPU_DEVICESPEC_H

#include <cstddef>

namespace psg {

/// Describes one execution architecture for the cost model.
struct DeviceSpec {
  // Compute resources.
  unsigned Sms = 24;            ///< Streaming multiprocessors.
  unsigned CoresPerSm = 128;    ///< Scalar cores per SM.
  double ClockGhz = 1.0;        ///< Core clock.
  double IssueRate = 1.0;       ///< Useful flops per core per cycle.
  unsigned WarpSize = 32;       ///< Lanes executing in lockstep.
  unsigned MaxThreadsPerSm = 2048;

  // Memory system.
  double GlobalBandwidthGBs = 300.0;  ///< Device-memory bandwidth.
  size_t SharedMemPerSmBytes = 96 * 1024;
  size_t ConstantMemBytes = 64 * 1024;

  // Launch overheads.
  double KernelLaunchUs = 6.0;      ///< Host-side kernel launch.
  double ChildLaunchUs = 1.6;       ///< Dynamic-parallelism child launch.
  double SyncPointUs = 1.0;         ///< Grid-wide synchronization.

  /// Total scalar cores.
  unsigned totalCores() const { return Sms * CoresPerSm; }

  /// Peak modeled throughput in flops/second.
  double peakFlops() const {
    return static_cast<double>(totalCores()) * ClockGhz * 1e9 * IssueRate;
  }

  /// The paper's GPU: Nvidia GeForce GTX Titan X (Maxwell, 3072 cores,
  /// 1.075 GHz, 12 GB, ~336 GB/s).
  static DeviceSpec titanX();

  /// One core of the paper's CPU: Intel Core i7-2600 at 3.4 GHz, with an
  /// effective IPC folding in superscalar issue and SSE/AVX use by the
  /// Fortran solvers.
  static DeviceSpec cpuCore();
};

} // namespace psg

#endif // PSG_VGPU_DEVICESPEC_H
