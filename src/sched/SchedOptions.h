//===- sched/SchedOptions.h - Multi-device scheduling knobs -----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the multi-device sharded sweep scheduler. Kept free
/// of core/sim includes so core/BatchEngine.h can embed it without a
/// layering cycle: core depends on sched for the executor, sched depends
/// only on sim/vgpu/support plus core's header-only stream contract.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SCHED_SCHEDOPTIONS_H
#define PSG_SCHED_SCHEDOPTIONS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace psg {

/// Test-only failure hook: invoked before each shard attempt with the
/// shard's first global simulation index, the logical device about to run
/// it, and the attempt number (0-based). Returning true "kills" the
/// attempt — the device produces nothing and the shard is re-queued (up
/// to SchedOptions::MaxShardAttempts). The hook may also sleep to turn a
/// device into a straggler for work-stealing tests.
using ShardFaultInjector =
    std::function<bool(size_t FirstIndex, unsigned Device, unsigned Attempt)>;

/// Multi-device sharding configuration. Scheduling is off (single-device
/// streaming) while Devices is empty.
struct SchedOptions {
  /// One simulator personality name per logical device, e.g.
  /// {"gpu-coarse", "gpu-coarse", "gpu-fine", "psg-engine"}. Each entry
  /// becomes an independent device: its own simulator instance, host
  /// worker slice, work queue, and metrics.
  std::vector<std::string> Devices;

  /// Base shard size in simulations (0 = the engine's SubBatchSize).
  /// Homogeneous fleets use exactly this chunk on every device, so a
  /// sharded sweep cuts the stream at the same boundaries as a
  /// single-device run with SubBatchSize == ChunkSize — the property the
  /// bit-exact oracle tests rely on. Heterogeneous fleets scale the chunk
  /// per device by the cost model's relative throughput and round it up
  /// to a multiple of 8, clamped to [8, base chunk].
  uint64_t ChunkSize = 0;

  /// Shards staged ahead per device. Bounds scheduler-resident
  /// simulations at roughly Devices * (QueueDepth + 2) * ChunkSize: the
  /// queued shards, the one each device is running and those waiting in
  /// the reorder buffer for an earlier shard.
  uint64_t QueueDepth = 2;

  /// Host pool workers behind each device's virtual device (0 = divide
  /// the hardware concurrency evenly across devices, minimum 1).
  unsigned WorkersPerDevice = 0;

  /// Total attempts a shard may consume (first run + re-queues) before
  /// the scheduler gives up and reports its simulations as Aborted
  /// failures. The bounded re-queue of the fault-tolerance contract:
  /// every simulation is delivered exactly once either way.
  unsigned MaxShardAttempts = 3;

  /// Test-only fault hook (see ShardFaultInjector). Empty in production.
  ShardFaultInjector FaultInjector;

  bool enabled() const { return !Devices.empty(); }
};

} // namespace psg

#endif // PSG_SCHED_SCHEDOPTIONS_H
