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
/// executor delivers in ascending contiguous order, so writes are a
/// straight offset copy.
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

/// What makes \p G unrunnable against \p Net, naming the field, or an
/// empty string when it can run. A grant comes from outside the process,
/// so the worker checks it against every rule a run relies on before it
/// adopts it.
std::string grantError(const ShardGrantMsg &G, const ReactionNetwork &Net) {
  const WireLimits Limits;
  if (G.InitialStates.size() != G.RateConstantSets.size())
    return formatString("InitialStates holds %zu states for %zu rate sets",
                        G.InitialStates.size(), G.RateConstantSets.size());
  for (size_t I = 0; I < G.RateConstantSets.size(); ++I) {
    if (G.RateConstantSets[I].size() != Net.numReactions())
      return formatString("RateConstantSets[%zu] has %zu entries for %zu "
                          "reactions",
                          I, G.RateConstantSets[I].size(), Net.numReactions());
    if (G.InitialStates[I].size() != Net.numSpecies())
      return formatString("InitialStates[%zu] has %zu entries for %zu species",
                          I, G.InitialStates[I].size(), Net.numSpecies());
  }
  // The coordinator decodes no trajectory longer than MaxVectorDoubles
  // samples, so a longer one is never worth allocating.
  if (G.OutputSamples == 1 || G.OutputSamples > Limits.MaxVectorDoubles)
    return formatString("OutputSamples %llu is neither 0 nor in [2, %zu]",
                        static_cast<unsigned long long>(G.OutputSamples),
                        Limits.MaxVectorDoubles);
  if (G.ChunkSize > Limits.MaxBatchSimulations)
    return formatString("ChunkSize %llu exceeds %zu",
                        static_cast<unsigned long long>(G.ChunkSize),
                        Limits.MaxBatchSimulations);
  if (!isValidWindow(G.StartTime, G.EndTime))
    return formatString("StartTime/EndTime %g %g is not a finite window "
                        "with t0 < tend",
                        G.StartTime, G.EndTime);
  if (!hasValidTolerances(G.Solver))
    return formatString("Solver tolerances %g %g are not finite and above 0",
                        G.Solver.AbsTol, G.Solver.RelTol);
  if (!hasValidStepBudget(G.Solver))
    return "Solver.MaxSteps is 0";
  return {};
}

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
    std::string Irreconcilable;
    if (G.ModelFingerprint != 0 && G.ModelFingerprint != Fingerprint)
      Irreconcilable = "model fingerprint mismatch";
    else if (std::string Error = grantError(G, Net); !Error.empty())
      Irreconcilable = "malformed grant: " + Error;
    if (!Irreconcilable.empty()) {
      // Leaving hands the grant back: the coordinator re-queues the
      // shards of a node that says goodbye.
      NodeGoodbyeMsg Bye;
      Bye.Node = Self;
      Bye.Reason = Irreconcilable;
      Endpoint.send(CoordinatorNode, encodeNodeGoodbye(Bye));
      Rep.ExitReason = std::move(Irreconcilable);
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
