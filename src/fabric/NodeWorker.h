//===- fabric/NodeWorker.h - Cross-node sweep worker ------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of cross-node sweep distribution: an event loop that
/// announces itself (Hello), heartbeats while idle AND while computing
/// (a pump thread keeps liveness flowing through the blocking local
/// run, so a grant that outlasts the coordinator's heartbeat timeout is
/// not a false death), runs each ShardGrant through a local warm
/// multi-device ShardedExecutor, and streams the serialized outcomes
/// back as OutcomeBatch frames. The worker re-cuts
/// each grant at the reference chunk the grant prescribes, so the global
/// sub-batch boundaries — and bit-exactness — survive distribution.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_FABRIC_NODEWORKER_H
#define PSG_FABRIC_NODEWORKER_H

#include "fabric/Fabric.h"
#include "rbm/ReactionNetwork.h"
#include "sched/SchedOptions.h"
#include "vgpu/CostModel.h"

#include <cstdint>
#include <string>

namespace psg {

/// Outcome of one worker's service life.
struct WorkerReport {
  uint64_t Grants = 0;        ///< Shard grants executed.
  uint64_t Simulations = 0;   ///< Simulations integrated locally.
  uint64_t Heartbeats = 0;    ///< Idle heartbeats sent.
  double ModeledBusySeconds = 0.0; ///< Summed modeled device seconds.
  std::string ExitReason;     ///< Why serve() returned.
};

/// Serves shard grants arriving on a fabric endpoint until the
/// coordinator says goodbye or the transport closes.
class NodeWorker {
public:
  /// \p Local configures the worker's device fleet (personality names;
  /// must be non-empty). \p Endpoint must outlive the worker.
  NodeWorker(const CostModel &Model, FabricEndpoint &Endpoint,
             SchedOptions Local, double HeartbeatIntervalSeconds = 0.05);

  /// Blocks serving grants against \p Net. Returns when the coordinator
  /// sends NodeGoodbye, the transport closes, or a grant is
  /// irreconcilable: a model fingerprint mismatch, or a malformed grant
  /// (parameter sets sized wrong for \p Net, a bad window, tolerance,
  /// step budget, sample count or chunk size). The worker says goodbye
  /// before it leaves, and ExitReason names the bad field.
  WorkerReport serve(const ReactionNetwork &Net);

private:
  CostModel Model;
  FabricEndpoint &Endpoint;
  SchedOptions Local;
  double HeartbeatIntervalSeconds;
};

} // namespace psg

#endif // PSG_FABRIC_NODEWORKER_H
