//===- vgpu/DeviceSpec.cpp ------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "vgpu/DeviceSpec.h"

using namespace psg;

DeviceSpec DeviceSpec::titanX() {
  DeviceSpec D;
  D.Sms = 24;
  D.CoresPerSm = 128;
  D.ClockGhz = 1.075;
  // Double-precision work on Maxwell runs far below the single-precision
  // peak (1/32 DP ratio); biochemical simulators mix DP arithmetic with
  // latency-bound memory access, so the effective per-core issue rate is
  // modeled well below 1.
  D.IssueRate = 0.12;
  D.WarpSize = 32;
  D.MaxThreadsPerSm = 2048;
  D.GlobalBandwidthGBs = 336.0;
  D.SharedMemPerSmBytes = 96 * 1024;
  D.ConstantMemBytes = 64 * 1024;
  D.KernelLaunchUs = 6.0;
  D.ChildLaunchUs = 1.6;
  D.SyncPointUs = 1.0;
  return D;
}

DeviceSpec DeviceSpec::cpuCore() {
  DeviceSpec D;
  D.Sms = 1;
  D.CoresPerSm = 1;
  D.ClockGhz = 3.4;
  // Effective scalar IPC of compiled Fortran/C solvers (superscalar issue,
  // partial SIMD): ~2 useful flops per cycle.
  D.IssueRate = 2.0;
  D.WarpSize = 1;
  D.MaxThreadsPerSm = 1;
  D.GlobalBandwidthGBs = 21.0;
  D.KernelLaunchUs = 0.0;
  D.ChildLaunchUs = 0.0;
  D.SyncPointUs = 0.0;
  return D;
}
