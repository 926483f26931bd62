//===- fabric/NodeCoordinator.h - Cross-node sweep coordinator --*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator side of cross-node sweep distribution. One
/// NodeCoordinator partitions a streaming sweep into shard grants and
/// feeds them over a message fabric to worker nodes, each of which runs
/// its local multi-device ShardedExecutor and streams OutcomeBatch
/// frames back. Scheduling is the modeled virtual-finish policy of the
/// in-process executor lifted to nodes: each node carries an Assigned
/// accumulator fed by its reported modeled seconds, and every grant
/// goes to the alive node with the earliest modeled finish that has
/// queue capacity.
///
/// Fault handling:
///  * Heartbeat silence beyond the timeout declares a node dead: its
///    epoch is bumped and its in-flight shards re-enter the grant queue
///    (front, next attempt). A later message from the node rejoins it
///    at the new epoch.
///  * A shard that dies MaxShardAttempts times is delivered exactly
///    once as Aborted outcomes (the ShardedExecutor contract), counted
///    in `psg.fabric.lost_simulations` and `psg.sched.lost_simulations`.
///  * The return path funnels through the shared DeliveryLedger: a late
///    OutcomeBatch from a "dead" node either rescues the shard (stale
///    epoch accepted while undelivered, when AcceptStaleResults) or is
///    suppressed as a duplicate — the sink sees every simulation
///    exactly once in every interleaving.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_FABRIC_NODECOORDINATOR_H
#define PSG_FABRIC_NODECOORDINATOR_H

#include "core/BatchEngine.h"
#include "fabric/Fabric.h"
#include "fabric/FabricOptions.h"
#include "rbm/ReactionNetwork.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psg {

/// Per-node outcome of one distributed sweep.
struct NodeScheduleReport {
  NodeId Node = 0;
  uint32_t Devices = 0;   ///< Local device count the node announced.
  uint64_t Epoch = 0;     ///< Final incarnation (1 + times declared dead).
  bool Alive = false;     ///< Still alive when the sweep ended.
  uint64_t Shards = 0;       ///< Shards it returned (accepted batches).
  uint64_t Simulations = 0;  ///< Simulations in those batches.
  uint64_t Requeues = 0;     ///< Its in-flight shards re-queued on death.
  uint64_t Deaths = 0;       ///< Times it was declared dead.
  uint64_t Rejoins = 0;      ///< Times it came back after a death.
  double ModeledBusySeconds = 0.0; ///< Node-concurrent modeled seconds.
  double Utilization = 0.0; ///< Busy / fleet makespan.
};

/// Outcome of one distributed streaming sweep.
struct FabricScheduleReport {
  StreamReport Stream;
  std::vector<NodeScheduleReport> Nodes;
  uint64_t Shards = 0;           ///< Grants sent (incl. re-grants).
  uint64_t Requeues = 0;         ///< Shards re-queued off dead nodes.
  uint64_t LostSimulations = 0;  ///< Delivered as Aborted.
  uint64_t NodeDeaths = 0;
  uint64_t NodeRejoins = 0;
  uint64_t DuplicateBatches = 0;  ///< Suppressed by the dedup ledger.
  uint64_t StaleEpochBatches = 0; ///< Batches bearing a pre-death epoch.
  /// Max over nodes of node-concurrent modeled busy seconds: the
  /// modeled sweep time of the distributed fleet.
  double ModeledMakespanSeconds = 0.0;
  /// (max - min) node busy time over max; 0 = perfectly balanced.
  double ShardImbalance = 0.0;

  double modeledThroughputPerSecond() const {
    return ModeledMakespanSeconds > 0.0
               ? static_cast<double>(Stream.Simulations) /
                     ModeledMakespanSeconds
               : 0.0;
  }
};

/// Drives one or more distributed sweeps over a connected fabric.
class NodeCoordinator {
public:
  /// \p Engine supplies the integration window/solver/sub-batch
  /// contract every grant carries; \p Fabric must be enabled() and its
  /// endpoint outlive the coordinator.
  NodeCoordinator(EngineOptions Engine, FabricOptions Fabric);

  /// Streams \p Source across the worker fleet and hands outcome
  /// batches to \p Sink (ascending contiguous order by default).
  /// Blocks until every simulation is delivered — as real outcomes or
  /// Aborted — then sends NodeGoodbye to every configured worker, alive,
  /// dead or not yet heard from.
  FabricScheduleReport
  streamParameterizations(const ReactionNetwork &Net,
                          const ParameterizationSource &Source,
                          OutcomeSink &Sink);

private:
  EngineOptions Engine;
  FabricOptions Fabric;
};

} // namespace psg

#endif // PSG_FABRIC_NODECOORDINATOR_H
