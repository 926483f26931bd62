//===- fabric/FabricOptions.h - Cross-node run options ----------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options for distributing a streaming sweep across worker nodes over
/// a message fabric. Kept free of core/sim includes so core's
/// EngineOptions can embed it without a dependency cycle (the same
/// contract SchedOptions follows): psg_core links psg_fabric, never the
/// reverse.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_FABRIC_FABRICOPTIONS_H
#define PSG_FABRIC_FABRICOPTIONS_H

#include <cstdint>
#include <vector>

namespace psg {

class FabricEndpoint;

/// Cross-node distribution controls. Engine code treats a default
/// FabricOptions as "single node": the fabric path activates only when
/// an endpoint and at least one worker are configured.
struct FabricOptions {
  /// The coordinator's attachment to the fabric (non-owning; the
  /// caller keeps the endpoint alive for the whole run).
  FabricEndpoint *Endpoint = nullptr;

  /// Worker node ids expected to join (coordinator is node 0).
  std::vector<uint32_t> Workers;

  /// Simulations per shard grant. 0 derives a grant of
  /// SubBatchSize x (worker device count), which preserves the
  /// single-process sub-batch boundaries and with them bit-exactness.
  size_t GrantSize = 0;

  /// Grants a node may hold unreturned before the coordinator stops
  /// feeding it (per-node pipelining depth, mirroring SchedOptions'
  /// QueueDepth).
  unsigned GrantQueueDepth = 2;

  /// Re-queue budget per shard: a shard abandoned by dead nodes this
  /// many times is delivered as Aborted outcomes instead of retrying
  /// forever (the ShardedExecutor MaxShardAttempts contract).
  unsigned MaxShardAttempts = 3;

  /// Seconds between worker heartbeats (also the coordinator's poll
  /// granularity).
  double HeartbeatIntervalSeconds = 0.05;

  /// Silence longer than this declares a node dead: its epoch is
  /// bumped and its in-flight shards re-queue. A later message from
  /// the node rejoins it at the new epoch.
  double HeartbeatTimeoutSeconds = 2.0;

  /// How long the coordinator waits for workers' Hello at start.
  double HelloTimeoutSeconds = 10.0;

  /// With every node dead and work outstanding, how long to wait for a
  /// rejoin before aborting the remaining shards.
  double StallTimeoutSeconds = 10.0;

  /// Accept a result for an in-flight shard from a node declared dead
  /// (stale epoch) when the shard has not been re-delivered yet. Saves
  /// the re-run after a false death; the dedup ledger still guarantees
  /// exactly-once delivery either way.
  bool AcceptStaleResults = true;

  /// True when this run should go through the fabric.
  bool enabled() const { return Endpoint != nullptr && !Workers.empty(); }
};

} // namespace psg

#endif // PSG_FABRIC_FABRICOPTIONS_H
