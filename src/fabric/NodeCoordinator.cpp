//===- fabric/NodeCoordinator.cpp - Cross-node sweep coordinator ----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Protocol invariants (tested by tests/fabric_test.cpp):
//
//  * Shard grants are cut by the single coordinator in emission order
//    at multiples of the reference chunk, so the global sub-batch
//    boundaries — and with them bit-exactness against a single-process
//    run — are independent of node count, grant interleaving, and
//    failures.
//  * Every simulation reaches the sink exactly once: the DeliveryLedger
//    deduplicates repeated OutcomeBatches by shard identity, a late
//    batch from a node declared dead either rescues its shard (if it is
//    still undelivered) or is suppressed, and a shard abandoned
//    MaxShardAttempts times is delivered as Aborted outcomes.
//  * Placement is modeled-time-driven: grants go to the alive node with
//    the earliest modeled virtual finish (Assigned accumulator fed by
//    reported modeled seconds), never to whichever node's messages
//    happen to arrive first.
//
//===----------------------------------------------------------------------===//

#include "fabric/NodeCoordinator.h"

#include "fabric/WireFormat.h"
#include "rbm/MassAction.h"
#include "sched/DeliveryLedger.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>

using namespace psg;

namespace {

void accumulateModeled(ModeledTime &Into, const ModeledTime &From) {
  Into.ComputeSeconds += From.ComputeSeconds;
  Into.MemorySeconds += From.MemorySeconds;
  Into.LaunchSeconds += From.LaunchSeconds;
  Into.HostSeconds += From.HostSeconds;
}

/// One shard waiting to be (re-)granted.
struct QueuedShard {
  uint64_t First = 0;
  uint64_t Count = 0;
  uint32_t Attempt = 0;
  std::vector<std::vector<double>> RateConstantSets;
  std::vector<std::vector<double>> InitialStates;
};

/// One shard granted to a node and not yet resolved. The
/// parameterizations are retained so a re-grant after the owner dies
/// carries bit-identical inputs.
struct InFlightShard {
  uint64_t Count = 0;
  uint32_t Attempt = 0;
  NodeId Owner = 0;
  uint64_t Epoch = 0; ///< Owner incarnation the grant was issued to.
  double EstimateSeconds = 0.0;
  std::vector<std::vector<double>> RateConstantSets;
  std::vector<std::vector<double>> InitialStates;
};

struct NodeState {
  NodeId Id = 0;
  uint64_t Epoch = 1;
  bool Alive = false;
  bool EverAlive = false;
  double LastHeard = 0.0;
  uint32_t Devices = 1;
  /// Node-concurrent modeled seconds per simulation, EMA-updated from
  /// returned batches; seeds grant estimates.
  double EstSecondsPerSim = 0.0;
  /// Modeled virtual finish time (completed actuals + in-flight
  /// estimates) — the node-level Assigned accumulator.
  double Assigned = 0.0;
  double ModeledBusy = 0.0;
  unsigned InFlightGrants = 0;
  NodeScheduleReport Report;
};

} // namespace

NodeCoordinator::NodeCoordinator(EngineOptions EngineOpts,
                                 FabricOptions FabricOpts)
    : Engine(std::move(EngineOpts)), Fabric(std::move(FabricOpts)) {
  assert(Fabric.enabled() && "coordinator without an enabled fabric");
}

FabricScheduleReport NodeCoordinator::streamParameterizations(
    const ReactionNetwork &Net, const ParameterizationSource &Source,
    OutcomeSink &Sink) {
  FabricEndpoint &Ep = *Fabric.Endpoint;
  const unsigned MaxAttempts = std::max(1u, Fabric.MaxShardAttempts);
  const unsigned Depth = std::max(1u, Fabric.GrantQueueDepth);
  const uint64_t Chunk = Engine.Sched.ChunkSize ? Engine.Sched.ChunkSize
                         : Engine.SubBatchSize  ? Engine.SubBatchSize
                                                : 512;
  const uint64_t Fingerprint = networkFingerprint(Net);

  TraceSpan RunSpan("fabric.run", "fabric");
  MetricsRegistry &M = metrics();
  Counter &ShardsC = M.counter("psg.fabric.shards");
  Counter &SimsC = M.counter("psg.fabric.simulations");
  Counter &RequeuesC = M.counter("psg.fabric.requeues");
  Counter &LostC = M.counter("psg.fabric.lost_simulations");
  Counter &SchedLostC = M.counter("psg.sched.lost_simulations");
  Counter &DeathsC = M.counter("psg.fabric.node_deaths");
  Counter &RejoinsC = M.counter("psg.fabric.node_rejoins");
  Counter &DupC = M.counter("psg.fabric.duplicates_suppressed");
  Counter &StaleC = M.counter("psg.fabric.stale_batches");
  Counter &FramesOutC = M.counter("psg.fabric.frames_sent");
  Counter &FramesInC = M.counter("psg.fabric.frames_received");
  Counter &BytesOutC = M.counter("psg.fabric.bytes_sent");
  Counter &BytesInC = M.counter("psg.fabric.bytes_received");

  FabricScheduleReport Rep;
  std::map<NodeId, NodeState> Nodes;
  for (uint32_t W : Fabric.Workers) {
    NodeState N;
    N.Id = W;
    N.LastHeard = Ep.now();
    Nodes.emplace(W, std::move(N));
  }
  std::map<uint64_t, InFlightShard> InFlights;
  std::deque<QueuedShard> Requeue;
  DeliveryLedger Ledger;
  bool Dry = false;
  size_t NextIndex = 0;
  size_t Resident = 0;

  auto sendFrame = [&](NodeId To, std::vector<uint8_t> Frame) {
    FramesOutC.add();
    BytesOutC.add(Frame.size());
    return Ep.send(To, std::move(Frame));
  };

  auto estimateFor = [&](const NodeState &N, uint64_t Count) {
    return N.EstSecondsPerSim * static_cast<double>(Count);
  };

  // Delivers Count Aborted outcomes for a shard whose attempt budget is
  // exhausted (or that can never run again) — the exactly-once "gap
  // filler" of the re-queue path.
  auto abortShard = [&](uint64_t First, uint64_t Count) {
    std::vector<SimulationOutcome> Lost(static_cast<size_t>(Count));
    for (SimulationOutcome &O : Lost) {
      O.Result.Status = IntegrationStatus::Aborted;
      O.Result.Detail = formatString(
          "fabric: shard dropped after %u attempts", MaxAttempts);
    }
    Rep.LostSimulations += Count;
    LostC.add(Count);
    SchedLostC.add(Count);
    Rep.Stream.Failures += Count;
    Rep.Stream.Simulations += Count;
    ++Rep.Stream.SubBatches;
    DeliveryLedger::Acceptance A = Ledger.accept(First, std::move(Lost), Sink);
    assert(!A.Duplicate && "aborted a shard that was already delivered");
    assert(Resident >= A.FlushedSimulations && "resident underflow");
    Resident -= A.FlushedSimulations;
  };

  // Re-queues (or aborts) one abandoned shard.
  auto requeueShard = [&](uint64_t First, InFlightShard &&F) {
    if (F.Attempt + 1 < MaxAttempts) {
      QueuedShard Q;
      Q.First = First;
      Q.Count = F.Count;
      Q.Attempt = F.Attempt + 1;
      Q.RateConstantSets = std::move(F.RateConstantSets);
      Q.InitialStates = std::move(F.InitialStates);
      Requeue.push_front(std::move(Q));
      ++Rep.Requeues;
      RequeuesC.add();
    } else {
      abortShard(First, F.Count);
    }
  };

  // Declares \p N dead: bump its epoch (so anything it sends later is
  // recognizably stale) and move its in-flight shards back to the
  // grant queue.
  auto killNode = [&](NodeState &N, const char *Why) {
    if (!N.Alive)
      return;
    N.Alive = false;
    ++N.Epoch;
    ++N.Report.Deaths;
    ++Rep.NodeDeaths;
    DeathsC.add();
    logMessage(LogLevel::Warning, "fabric: node %u declared dead (%s)", N.Id,
               Why);
    for (auto It = InFlights.begin(); It != InFlights.end();) {
      if (It->second.Owner != N.Id) {
        ++It;
        continue;
      }
      N.Assigned = std::max(0.0, N.Assigned - It->second.EstimateSeconds);
      ++N.Report.Requeues;
      requeueShard(It->first, std::move(It->second));
      It = InFlights.erase(It);
    }
    N.InFlightGrants = 0;
  };

  // Feeds grants to the alive node with the earliest modeled virtual
  // finish until queues are full or there is nothing to grant.
  auto pump = [&]() {
    for (;;) {
      NodeState *Best = nullptr;
      for (auto &E : Nodes) {
        NodeState &N = E.second;
        if (N.Alive && N.InFlightGrants < Depth &&
            (!Best || N.Assigned < Best->Assigned))
          Best = &N;
      }
      if (!Best)
        return;
      QueuedShard Q;
      if (!Requeue.empty()) {
        Q = std::move(Requeue.front());
        Requeue.pop_front();
      } else if (!Dry) {
        // Cut a fresh grant: device-count many reference chunks, so the
        // worker's local executor re-cuts it on exactly the boundaries
        // a single-process run would have used.
        uint64_t Want =
            Fabric.GrantSize
                ? std::max<uint64_t>(Chunk, Fabric.GrantSize / Chunk * Chunk)
                : Chunk * std::max(1u, Best->Devices);
        TraceSpan GenSpan("fabric.generate", "fabric");
        WallTimer PrepareTimer;
        std::vector<Parameterization> Params;
        Params.reserve(static_cast<size_t>(Want));
        const size_t Count = Source(static_cast<size_t>(Want), Params);
        Rep.Stream.PrepareWallSeconds += PrepareTimer.seconds();
        if (Count == 0) {
          Dry = true;
          continue;
        }
        Q.First = NextIndex;
        NextIndex += Count;
        Q.Count = Count;
        Q.Attempt = 0;
        Q.RateConstantSets.reserve(Count);
        Q.InitialStates.reserve(Count);
        for (Parameterization &P : Params) {
          Q.RateConstantSets.push_back(std::move(P.RateConstants));
          Q.InitialStates.push_back(std::move(P.InitialState));
        }
        Resident += Count;
        Rep.Stream.PeakResidentOutcomes =
            std::max(Rep.Stream.PeakResidentOutcomes, Resident);
      } else {
        return;
      }

      ShardGrantMsg G;
      G.ShardId = Q.First;
      G.Epoch = Best->Epoch;
      G.First = Q.First;
      G.Attempt = Q.Attempt;
      G.ChunkSize = Chunk;
      G.StartTime = Engine.StartTime;
      G.EndTime = Engine.EndTime;
      G.OutputSamples = Engine.OutputSamples;
      G.Solver = Engine.Solver;
      G.ModelFingerprint = Fingerprint;
      G.RateConstantSets = std::move(Q.RateConstantSets);
      G.InitialStates = std::move(Q.InitialStates);
      std::vector<uint8_t> Frame = encodeShardGrant(G);

      const double Est = estimateFor(*Best, Q.Count);
      InFlightShard F;
      F.Count = Q.Count;
      F.Attempt = Q.Attempt;
      F.Owner = Best->Id;
      F.Epoch = Best->Epoch;
      F.EstimateSeconds = Est;
      F.RateConstantSets = std::move(G.RateConstantSets);
      F.InitialStates = std::move(G.InitialStates);
      InFlights.emplace(Q.First, std::move(F));
      Best->Assigned += Est;
      ++Best->InFlightGrants;
      ++Rep.Shards;
      ShardsC.add();
      if (!sendFrame(Best->Id, std::move(Frame)))
        killNode(*Best, "send failed");
    }
  };

  // Accepts one OutcomeBatch through the ledger; returns false when it
  // was a duplicate.
  auto deliverBatch = [&](OutcomeBatchMsg &&B, NodeState &Producer) {
    const size_t Count = B.Outcomes.size();
    DeliveryLedger::Acceptance A =
        Ledger.accept(B.First, std::move(B.Outcomes), Sink);
    if (A.Duplicate) {
      ++Rep.DuplicateBatches;
      DupC.add();
      return false;
    }
    assert(Resident >= A.FlushedSimulations && "resident underflow");
    Resident -= A.FlushedSimulations;
    Rep.Stream.TotalStats.merge(B.Stats);
    accumulateModeled(Rep.Stream.IntegrationTime, B.IntegrationTime);
    accumulateModeled(Rep.Stream.SimulationTime, B.SimulationTime);
    Rep.Stream.HostWallSeconds += B.HostWallSeconds;
    Rep.Stream.Failures += B.Failures;
    Rep.Stream.Simulations += Count;
    ++Rep.Stream.SubBatches;
    SimsC.add(Count);
    // Node-concurrent modeled time: the batch's summed device seconds
    // spread over the node's local fleet.
    const double NodeSeconds =
        B.SimulationTime.total() / std::max(1u, Producer.Devices);
    Producer.ModeledBusy += NodeSeconds;
    const double PerSim = NodeSeconds / static_cast<double>(Count);
    Producer.EstSecondsPerSim =
        Producer.EstSecondsPerSim > 0.0
            ? 0.5 * Producer.EstSecondsPerSim + 0.5 * PerSim
            : PerSim;
    ++Producer.Report.Shards;
    Producer.Report.Simulations += Count;
    return true;
  };

  auto handleFrame = [&](ReceivedFrame &&RF) {
    FramesInC.add();
    BytesInC.add(RF.Bytes.size());
    ErrorOr<FrameView> ViewOr = parseFrame(RF.Bytes);
    if (!ViewOr.ok()) {
      logMessage(LogLevel::Warning, "fabric: dropping frame from node %u: %s",
                 RF.From, ViewOr.message().c_str());
      return;
    }
    auto NodeIt = Nodes.find(RF.From);
    if (NodeIt == Nodes.end())
      return; // Not a configured worker.
    NodeState &N = NodeIt->second;
    N.LastHeard = Ep.now();
    if (!N.Alive && ViewOr->Type != MessageType::NodeGoodbye) {
      N.Alive = true;
      if (N.EverAlive) {
        ++N.Report.Rejoins;
        ++Rep.NodeRejoins;
        RejoinsC.add();
        logMessage(LogLevel::Info, "fabric: node %u rejoined (epoch %llu)",
                   N.Id, (unsigned long long)N.Epoch);
      }
      N.EverAlive = true;
    }

    switch (ViewOr->Type) {
    case MessageType::Hello: {
      ErrorOr<HelloMsg> H = decodeHello(ViewOr.value());
      if (!H.ok())
        return;
      N.Devices = std::max(1u, H->Devices);
      if (H->ModelFingerprint != 0 && H->ModelFingerprint != Fingerprint)
        logMessage(LogLevel::Warning,
                   "fabric: node %u announced a different model fingerprint",
                   N.Id);
      break;
    }
    case MessageType::Heartbeat:
    case MessageType::ShardAck:
      break; // Liveness refresh above is all these carry.
    case MessageType::NodeGoodbye:
      killNode(N, "goodbye");
      break;
    case MessageType::OutcomeBatch: {
      ErrorOr<OutcomeBatchMsg> BOr = decodeOutcomeBatch(ViewOr.value());
      if (!BOr.ok()) {
        logMessage(LogLevel::Warning,
                   "fabric: dropping OutcomeBatch from node %u: %s", RF.From,
                   BOr.message().c_str());
        return;
      }
      OutcomeBatchMsg &B = *BOr;
      auto It = InFlights.find(B.First);
      if (It == InFlights.end()) {
        // Maybe the shard is sitting in the re-grant queue after its
        // owner was declared dead: the late result rescues it.
        for (auto QIt = Requeue.begin(); QIt != Requeue.end(); ++QIt)
          if (QIt->First == B.First) {
            if (B.Outcomes.size() != QIt->Count) {
              logMessage(LogLevel::Warning,
                         "fabric: dropping OutcomeBatch for shard %llu from "
                         "node %u: %zu outcomes for a %llu-simulation shard",
                         (unsigned long long)B.First, N.Id, B.Outcomes.size(),
                         (unsigned long long)QIt->Count);
              return;
            }
            ++Rep.StaleEpochBatches;
            StaleC.add();
            if (!Fabric.AcceptStaleResults)
              return;
            if (deliverBatch(std::move(B), N))
              Requeue.erase(QIt);
            return;
          }
        // Already resolved: a duplicate (late retransmit, duplicated
        // frame, or a rescued shard's second arrival).
        ++Rep.DuplicateBatches;
        DupC.add();
        return;
      }
      InFlightShard &F = It->second;
      // A batch whose outcome count disagrees with the shard's cut
      // would corrupt the ledger's ordered-flush cursor and the
      // exactly-once accounting (the asserts guarding contiguity
      // compile out in release builds) — drop it and let the re-queue
      // ladder resolve the shard.
      if (B.Outcomes.size() != F.Count) {
        logMessage(LogLevel::Warning,
                   "fabric: dropping OutcomeBatch for shard %llu from node "
                   "%u: %zu outcomes for a %llu-simulation shard",
                   (unsigned long long)B.First, N.Id, B.Outcomes.size(),
                   (unsigned long long)F.Count);
        return;
      }
      const bool Stale = B.Epoch != F.Epoch || N.Id != F.Owner;
      if (Stale) {
        ++Rep.StaleEpochBatches;
        StaleC.add();
        if (!Fabric.AcceptStaleResults)
          return;
        // Accept the stale result; the current owner's eventual answer
        // will be suppressed as a duplicate. The owner will never
        // resolve this grant through the normal completion path, so
        // retire both its queue slot and the grant's estimate from its
        // virtual finish — leaving the estimate in Assigned would skew
        // placement away from that node for the rest of the run.
        if (deliverBatch(std::move(B), N)) {
          auto OwnerIt = Nodes.find(F.Owner);
          if (OwnerIt != Nodes.end()) {
            OwnerIt->second.Assigned =
                std::max(0.0, OwnerIt->second.Assigned - F.EstimateSeconds);
            if (OwnerIt->second.InFlightGrants > 0)
              --OwnerIt->second.InFlightGrants;
          }
          InFlights.erase(It);
        }
        return;
      }
      const double Estimate = F.EstimateSeconds;
      const double ActualNodeSeconds =
          B.SimulationTime.total() / std::max(1u, N.Devices);
      if (deliverBatch(std::move(B), N)) {
        // Replace the grant's estimate with the actual modeled seconds
        // so the virtual finish converges on the node's true makespan.
        N.Assigned =
            std::max(0.0, N.Assigned - Estimate) + ActualNodeSeconds;
        if (N.InFlightGrants > 0)
          --N.InFlightGrants;
        InFlights.erase(It);
      }
      break;
    }
    case MessageType::ShardGrant:
      break; // Workers never send grants; ignore.
    }
  };

  // Main loop: pump grants, poll, sweep heartbeats, detect stalls.
  WallTimer RunTimer;
  double StallStart = -1.0;
  bool Aborting = false;
  auto abortEverything = [&](const char *Why) {
    logMessage(LogLevel::Warning,
               "fabric: aborting remaining work (%s): %zu in flight, %zu "
               "queued",
               Why, InFlights.size(), Requeue.size());
    for (auto &E : Requeue)
      abortShard(E.First, E.Count);
    Requeue.clear();
    for (auto &E : InFlights)
      abortShard(E.first, E.second.Count);
    InFlights.clear();
    while (!Dry) {
      std::vector<Parameterization> Params;
      const size_t Count = Source(static_cast<size_t>(Chunk * 4), Params);
      if (Count == 0) {
        Dry = true;
        break;
      }
      Resident += Count;
      abortShard(NextIndex, Count);
      NextIndex += Count;
    }
    Aborting = true;
  };

  for (;;) {
    if (!Aborting)
      pump();
    if (Dry && InFlights.empty() && Requeue.empty())
      break;
    ReceivedFrame RF;
    const PollStatus Ps = Ep.poll(RF, Fabric.HeartbeatIntervalSeconds);
    if (Ps == PollStatus::Message) {
      handleFrame(std::move(RF));
    } else if (Ps == PollStatus::Closed) {
      // No peer can ever answer again: fail whatever is left, once.
      for (auto &E : Nodes)
        killNode(E.second, "transport closed");
      abortEverything("transport closed");
      continue;
    }
    const double Now = Ep.now();
    for (auto &E : Nodes)
      if (E.second.Alive &&
          Now - E.second.LastHeard > Fabric.HeartbeatTimeoutSeconds)
        killNode(E.second, "heartbeat timeout");

    bool AnyAlive = false, AnyEverAlive = false;
    for (auto &E : Nodes) {
      AnyAlive |= E.second.Alive;
      AnyEverAlive |= E.second.EverAlive;
    }
    if (!AnyAlive && !Aborting) {
      if (StallStart < 0)
        StallStart = Now;
      const double Limit =
          AnyEverAlive
              ? Fabric.StallTimeoutSeconds
              : std::max(Fabric.HelloTimeoutSeconds,
                         Fabric.StallTimeoutSeconds);
      if (Now - StallStart > Limit)
        abortEverything(AnyEverAlive ? "all nodes dead" : "no node joined");
    } else {
      StallStart = -1.0;
    }
  }

  // Drain mature leftovers (late duplicates or stale retransmits of the
  // final shards) so the duplicate/stale telemetry is complete before
  // teardown — they would be suppressed anyway, but uncounted.
  {
    ReceivedFrame RF;
    while (Ep.poll(RF, 0.0) == PollStatus::Message)
      handleFrame(std::move(RF));
  }

  // Orderly teardown: every configured worker goes home, not only the
  // alive ones. A worker whose Hello was still in flight when a small
  // sweep finished, or one declared dead that is still connected, would
  // otherwise serve until its transport closes; a send to a closed peer
  // just fails.
  for (auto &E : Nodes) {
    NodeGoodbyeMsg Bye;
    Bye.Node = CoordinatorNode;
    Bye.Reason = "sweep complete";
    sendFrame(E.first, encodeNodeGoodbye(Bye));
  }

  // Exactly-once oracle, enforced structurally: every cut simulation
  // was delivered (as real or Aborted outcomes), none twice.
  assert(Ledger.deliveredSimulations() == NextIndex &&
         "fabric: delivered simulations != generated simulations");
  assert(Ledger.pendingBatches() == 0 && "fabric: undelivered buffered work");
  assert(Rep.Stream.Simulations == NextIndex &&
         "fabric: stream accounting mismatch");

  const double RunWallSeconds = RunTimer.seconds();
  double MaxBusy = 0.0, MinBusy = 0.0, SumUtil = 0.0;
  bool FirstNode = true;
  for (auto &E : Nodes) {
    const double Busy = E.second.ModeledBusy;
    MaxBusy = std::max(MaxBusy, Busy);
    MinBusy = FirstNode ? Busy : std::min(MinBusy, Busy);
    FirstNode = false;
  }
  Rep.ModeledMakespanSeconds = MaxBusy;
  Rep.ShardImbalance = MaxBusy > 0.0 ? (MaxBusy - MinBusy) / MaxBusy : 0.0;
  Rep.Nodes.reserve(Nodes.size());
  for (auto &E : Nodes) {
    NodeState &N = E.second;
    N.Report.Node = N.Id;
    N.Report.Devices = N.Devices;
    N.Report.Epoch = N.Epoch;
    N.Report.Alive = N.Alive;
    N.Report.ModeledBusySeconds = N.ModeledBusy;
    N.Report.Utilization = MaxBusy > 0.0 ? N.ModeledBusy / MaxBusy : 0.0;
    SumUtil += N.Report.Utilization;
    M.gauge(formatString("psg.fabric.node.%u.utilization", N.Id))
        .set(N.Report.Utilization);
    Rep.Nodes.push_back(N.Report);
  }
  M.gauge("psg.fabric.node_utilization")
      .set(Nodes.empty() ? 0.0 : SumUtil / Nodes.size());
  M.gauge("psg.fabric.shard_imbalance").set(Rep.ShardImbalance);
  M.gauge("psg.fabric.modeled_makespan_s").set(Rep.ModeledMakespanSeconds);
  RunSpan.setModeledSeconds(Rep.ModeledMakespanSeconds);
  logMessage(LogLevel::Info,
             "fabric: %zu sims over %zu nodes in %llu grants, modeled "
             "makespan %.3gs (%llu requeues, %llu deaths, %llu dup "
             "suppressed, host %.3gs)",
             Rep.Stream.Simulations, Nodes.size(),
             (unsigned long long)Rep.Shards, Rep.ModeledMakespanSeconds,
             (unsigned long long)Rep.Requeues,
             (unsigned long long)Rep.NodeDeaths,
             (unsigned long long)Rep.DuplicateBatches, RunWallSeconds);
  Rep.Stream.Metrics = M.snapshot();
  return Rep;
}
