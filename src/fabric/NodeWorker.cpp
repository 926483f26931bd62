//===- fabric/NodeWorker.cpp - Cross-node sweep worker --------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "fabric/NodeWorker.h"

#include "fabric/WireFormat.h"
#include "rbm/MassAction.h"
#include "sched/ShardedExecutor.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

using namespace psg;

namespace {

/// Materializes a local executor run into a pre-sized vector. The
/// executor delivers in ascending contiguous order (OrderedDelivery),
/// so writes are a straight offset copy.
class MaterializeSink final : public OutcomeSink {
public:
  explicit MaterializeSink(std::vector<SimulationOutcome> &Out) : Out(Out) {}

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Outcomes) override {
    assert(FirstIndex + Outcomes.size() <= Out.size() &&
           "executor delivered outside the grant");
    for (size_t I = 0; I < Outcomes.size(); ++I)
      Out[FirstIndex + I] = std::move(Outcomes[I]);
  }

private:
  std::vector<SimulationOutcome> &Out;
};

/// The grant fields that parameterize the local executor; a change
/// forces a rebuild (in practice one sweep keeps them constant, so the
/// executor — and its device worker pools — stay warm across grants).
struct ExecutorKey {
  uint64_t ChunkSize = 0;
  double StartTime = 0.0;
  double EndTime = 0.0;
  uint64_t OutputSamples = 0;
  SolverOptions Solver;

  bool operator==(const ExecutorKey &O) const {
    return ChunkSize == O.ChunkSize && StartTime == O.StartTime &&
           EndTime == O.EndTime && OutputSamples == O.OutputSamples &&
           Solver.AbsTol == O.Solver.AbsTol &&
           Solver.RelTol == O.Solver.RelTol &&
           Solver.InitialStep == O.Solver.InitialStep &&
           Solver.MaxStep == O.Solver.MaxStep &&
           Solver.MaxSteps == O.Solver.MaxSteps &&
           Solver.Safety == O.Solver.Safety &&
           Solver.MinScale == O.Solver.MinScale &&
           Solver.MaxScale == O.Solver.MaxScale &&
           Solver.MaxNewtonIters == O.Solver.MaxNewtonIters &&
           Solver.EnableStiffnessDetection ==
               O.Solver.EnableStiffnessDetection;
  }
};

} // namespace

NodeWorker::NodeWorker(const CostModel &Model, FabricEndpoint &Endpoint,
                       SchedOptions Local, double HeartbeatIntervalSeconds)
    : Model(Model), Endpoint(Endpoint), Local(std::move(Local)),
      HeartbeatIntervalSeconds(HeartbeatIntervalSeconds) {
  assert(this->Local.enabled() && "worker needs at least one local device");
}

WorkerReport NodeWorker::serve(const ReactionNetwork &Net) {
  WorkerReport Rep;
  MetricsRegistry &M = metrics();
  Counter &GrantsC = M.counter("psg.fabric.worker.grants");
  Counter &SimsC = M.counter("psg.fabric.worker.simulations");
  Counter &HeartbeatsC = M.counter("psg.fabric.worker.heartbeats");

  const uint64_t Fingerprint = networkFingerprint(Net);
  std::shared_ptr<const CompiledModel> Compiled = compileModel(Net);
  const NodeId Self = Endpoint.id();

  std::unique_ptr<ShardedExecutor> Executor;
  ExecutorKey Key;

  auto sendHeartbeat = [&](uint32_t Queued) {
    HeartbeatMsg Hb;
    Hb.Node = Self;
    Hb.QueuedShards = Queued;
    Endpoint.send(CoordinatorNode, encodeHeartbeat(Hb));
    ++Rep.Heartbeats;
    HeartbeatsC.add();
  };

  HelloMsg Hello;
  Hello.Node = Self;
  Hello.ModelFingerprint = Fingerprint;
  Hello.Devices = static_cast<uint32_t>(Local.Devices.size());
  if (!Endpoint.send(CoordinatorNode, encodeHello(Hello))) {
    Rep.ExitReason = "hello send failed";
    return Rep;
  }

  for (;;) {
    ReceivedFrame RF;
    const PollStatus Ps = Endpoint.poll(RF, HeartbeatIntervalSeconds);
    if (Ps == PollStatus::Closed) {
      Rep.ExitReason = "transport closed";
      return Rep;
    }
    if (Ps == PollStatus::Timeout) {
      sendHeartbeat(0);
      continue;
    }
    ErrorOr<FrameView> ViewOr = parseFrame(RF.Bytes);
    if (!ViewOr.ok()) {
      logMessage(LogLevel::Warning, "fabric: worker %u dropping frame: %s",
                 Self, ViewOr.message().c_str());
      continue;
    }
    if (ViewOr->Type == MessageType::NodeGoodbye) {
      Rep.ExitReason = "coordinator goodbye";
      return Rep;
    }
    if (ViewOr->Type != MessageType::ShardGrant)
      continue; // Hello replies / stray frames carry nothing for us.

    ErrorOr<ShardGrantMsg> GrantOr = decodeShardGrant(ViewOr.value());
    if (!GrantOr.ok()) {
      logMessage(LogLevel::Warning, "fabric: worker %u bad grant: %s", Self,
                 GrantOr.message().c_str());
      continue;
    }
    ShardGrantMsg &G = *GrantOr;
    if (G.ModelFingerprint != 0 && G.ModelFingerprint != Fingerprint) {
      NodeGoodbyeMsg Bye;
      Bye.Node = Self;
      Bye.Reason = "model fingerprint mismatch";
      Endpoint.send(CoordinatorNode, encodeNodeGoodbye(Bye));
      Rep.ExitReason = "model fingerprint mismatch";
      return Rep;
    }

    ShardAckMsg Ack;
    Ack.ShardId = G.ShardId;
    Ack.Epoch = G.Epoch;
    Ack.Node = Self;
    Endpoint.send(CoordinatorNode, encodeShardAck(Ack));

    // (Re)build the warm local executor when the grant's engine
    // contract changes — in practice once per sweep.
    ExecutorKey Wanted;
    Wanted.ChunkSize = G.ChunkSize;
    Wanted.StartTime = G.StartTime;
    Wanted.EndTime = G.EndTime;
    Wanted.OutputSamples = G.OutputSamples;
    Wanted.Solver = G.Solver;
    if (!Executor || !(Key == Wanted)) {
      EngineOptions E;
      E.SubBatchSize = G.ChunkSize ? G.ChunkSize : 512;
      E.StartTime = G.StartTime;
      E.EndTime = G.EndTime;
      E.OutputSamples = static_cast<size_t>(G.OutputSamples);
      E.Solver = G.Solver;
      SchedOptions S = Local;
      S.ChunkSize = E.SubBatchSize;
      S.OrderedDelivery = true; // The grant must materialize in order.
      Executor = std::make_unique<ShardedExecutor>(Model, std::move(E),
                                                   std::move(S));
      Key = Wanted;
    }

    const size_t Count = G.RateConstantSets.size();
    std::vector<SimulationOutcome> Outcomes(Count);
    MaterializeSink Sink(Outcomes);
    size_t Cursor = 0;
    auto Src = [&](size_t MaxCount,
                   std::vector<Parameterization> &Out) -> size_t {
      const size_t N = std::min(MaxCount, Count - Cursor);
      for (size_t I = 0; I < N; ++I) {
        Parameterization P;
        P.RateConstants = std::move(G.RateConstantSets[Cursor + I]);
        if (Cursor + I < G.InitialStates.size())
          P.InitialState = std::move(G.InitialStates[Cursor + I]);
        Out.push_back(std::move(P));
      }
      Cursor += N;
      return N;
    };
    // The local run blocks this thread for as long as the grant takes —
    // routinely far past HeartbeatTimeoutSeconds for real ODE sweeps —
    // so liveness must keep flowing from a pump thread, or the
    // coordinator falsely declares this node dead mid-grant, re-queues
    // the shard, and (with every node computing) can abort the whole
    // sweep. The pump is the endpoint's only user while the executor
    // runs; joining it before the OutcomeBatch send restores single-
    // threaded access.
    ShardScheduleReport R;
    {
      std::mutex PumpMutex;
      std::condition_variable PumpCv;
      bool PumpDone = false;
      std::thread Pump([&] {
        std::unique_lock<std::mutex> Lock(PumpMutex);
        for (;;) {
          PumpCv.wait_for(
              Lock, std::chrono::duration<double>(HeartbeatIntervalSeconds));
          if (PumpDone)
            return;
          Lock.unlock();
          sendHeartbeat(1); // One grant adopted and in progress.
          Lock.lock();
        }
      });
      R = Executor->streamParameterizations(Net, Compiled, Src, Sink);
      {
        std::lock_guard<std::mutex> Lock(PumpMutex);
        PumpDone = true;
      }
      PumpCv.notify_all();
      Pump.join();
    }

    OutcomeBatchMsg B;
    B.ShardId = G.ShardId;
    B.Epoch = G.Epoch;
    B.First = G.First;
    B.Node = Self;
    B.Failures = R.Stream.Failures;
    B.Stats = R.Stream.TotalStats;
    B.IntegrationTime = R.Stream.IntegrationTime;
    B.SimulationTime = R.Stream.SimulationTime;
    B.HostWallSeconds = R.Stream.HostWallSeconds;
    B.Outcomes = std::move(Outcomes);
    ++Rep.Grants;
    Rep.Simulations += Count;
    Rep.ModeledBusySeconds += R.Stream.SimulationTime.total();
    GrantsC.add();
    SimsC.add(Count);
    if (!Endpoint.send(CoordinatorNode, encodeOutcomeBatch(B))) {
      Rep.ExitReason = "outcome send failed";
      return Rep;
    }
    sendHeartbeat(0); // Prompt liveness refresh after a long compute.
  }
}
