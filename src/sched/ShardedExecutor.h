//===- sched/ShardedExecutor.h - Multi-device sweep scheduler ---*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-device sharding scheduler: one streaming sweep saturating N
/// logical devices at once. Each logical device pairs a simulator
/// personality (its vgpu::Backend cost model) with a pinned slice of the
/// host worker pool and a private work queue. A coordinator pulls
/// parameterizations from the sweep source in emission order, cuts them
/// into chunks sized by the cost model's relative device throughput
/// (chunked self-scheduling), and assigns each shard to the device with
/// the earliest modeled virtual finish time. Devices that drain their
/// queue after the source runs dry steal queued shards from the most
/// backlogged device (work-stealing from stragglers). Failed shard
/// attempts — a device "dying" mid-shard, modeled by the fault-injection
/// hook, or a simulator throwing — are re-queued onto the next device up
/// to a bounded attempt budget; simulations of shards that exhaust it
/// are delivered exactly once as Aborted failures.
///
/// Delivery honors the OutcomeSink contract of core/BatchEngine.h:
/// completed shards are buffered and handed to the sink in global
/// emission order, so order-dependent sinks (the engine's materializing
/// runs) work unchanged and sharded sweeps are bit-exact against
/// single-device oracles.
///
/// Timing follows the repo's modeled-hardware paradigm: every shard is
/// really integrated on the host, its modeled device seconds accumulate
/// into the owning device's busy time, and the sweep's modeled makespan
/// is the maximum device busy time — the devices run concurrently in the
/// model even where the host serializes them.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SCHED_SHARDEDEXECUTOR_H
#define PSG_SCHED_SHARDEDEXECUTOR_H

#include "core/BatchEngine.h"
#include "sched/SchedOptions.h"
#include "sim/Simulator.h"
#include "vgpu/CostModel.h"

#include <memory>
#include <vector>

namespace psg {

/// Per-device outcome of one sharded sweep.
struct DeviceShardReport {
  std::string Name;      ///< "device<i>:<personality>".
  std::string Simulator; ///< Personality name.
  uint64_t Shards = 0;       ///< Shards this device completed.
  uint64_t Simulations = 0;  ///< Simulations it integrated.
  uint64_t Steals = 0;       ///< Shards it stole from other queues.
  uint64_t Requeues = 0;     ///< Attempts that died on it and re-queued.
  double ModeledBusySeconds = 0.0; ///< Summed modeled simulation time.
  double HostBusySeconds = 0.0;    ///< Real host seconds inside run().
  /// ModeledBusySeconds / modeled makespan; 1.0 on the critical device.
  double Utilization = 0.0;
};

/// Outcome of one sharded streaming sweep: the single-device StreamReport
/// aggregates plus the scheduling telemetry.
struct ShardScheduleReport {
  StreamReport Stream;
  std::vector<DeviceShardReport> Devices;
  uint64_t Shards = 0;   ///< Shards delivered (== Stream.SubBatches).
  uint64_t Steals = 0;   ///< Work-stealing events across the fleet.
  uint64_t Requeues = 0; ///< Failed attempts that were re-queued.
  /// Simulations delivered as Aborted after a shard exhausted its
  /// attempt budget (also counted in Stream.Failures).
  uint64_t LostSimulations = 0;
  /// Modeled concurrent sweep time: max over devices of modeled busy
  /// seconds. The sharded analogue of StreamReport::SimulationTime
  /// (which stays the summed per-shard device work).
  double ModeledMakespanSeconds = 0.0;
  /// (max - min) device modeled busy time over the max; 0 = perfectly
  /// balanced. Exported as the gauge `psg.sched.shard_imbalance`.
  double ShardImbalance = 0.0;

  /// Modeled simulations per second of the concurrent fleet.
  double modeledThroughputPerSecond() const {
    return ModeledMakespanSeconds > 0.0
               ? static_cast<double>(Stream.Simulations) /
                     ModeledMakespanSeconds
               : 0.0;
  }
};

/// Runs streaming sweeps across N logical devices with work-stealing.
class ShardedExecutor {
public:
  /// Builds the fleet: one simulator instance per Sched.Devices entry,
  /// each pinned to WorkersPerDevice host workers. Aborts on unknown
  /// personality names (mirrors BatchEngine's constructor contract).
  ShardedExecutor(const CostModel &Model, EngineOptions Engine,
                  SchedOptions Sched);
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor &) = delete;
  ShardedExecutor &operator=(const ShardedExecutor &) = delete;

  unsigned numDevices() const;
  /// The shard chunk (simulations) device \p Device is fed: the base
  /// chunk, or on heterogeneous fleets the base chunk scaled by the cost
  /// model's relative throughput estimate and rounded up to a multiple
  /// of 8.
  uint64_t chunkFor(unsigned Device) const;

  /// Streams parameterizations pulled from \p Source across the fleet
  /// and hands every integrated shard to \p Sink in emission order.
  /// \p Compiled may be null; it is the caller's cached compilation of
  /// \p Net, shared immutably by every device.
  ShardScheduleReport
  streamParameterizations(const ReactionNetwork &Net,
                          std::shared_ptr<const CompiledModel> Compiled,
                          const ParameterizationSource &Source,
                          OutcomeSink &Sink);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace psg

#endif // PSG_SCHED_SHARDEDEXECUTOR_H
