//===- sched/ShardedExecutor.cpp ------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Scheduling invariants (tested by tests/sched_test.cpp, documented in
// DESIGN.md):
//
//  * Shard boundaries are cut by the single coordinator in emission
//    order, so they are deterministic for a given (source, options)
//    pair regardless of which device runs which shard or in what order
//    shards complete.
//  * Every simulation is delivered to the sink exactly once: as real
//    outcomes when some attempt of its shard completes, or as Aborted
//    failures when the shard exhausts MaxShardAttempts.
//  * A homogeneous fleet is bit-exact against a single-device run whose
//    SubBatchSize equals the shard chunk: the shards are that run's
//    sub-batches, and every personality is warm/cold dispatch-invariant
//    (psg::check property).
//  * Work-stealing only moves *queued* shards, never running ones, so a
//    steal can't duplicate outcomes.
//
//===----------------------------------------------------------------------===//

#include "sched/ShardedExecutor.h"

#include "sched/DeliveryLedger.h"
#include "support/Error.h"
#include "support/Logging.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace psg;

namespace {

void accumulateModeled(ModeledTime &Into, const ModeledTime &From) {
  Into.ComputeSeconds += From.ComputeSeconds;
  Into.MemorySeconds += From.MemorySeconds;
  Into.LaunchSeconds += From.LaunchSeconds;
  Into.HostSeconds += From.HostSeconds;
}

/// Absolute modeled throughput (sims per modeled second) of backend \p B
/// on a nominal mid-sized workload. Only the *relative* values matter:
/// they size per-device chunks and seed the virtual-finish-time
/// estimates before real shard timings exist.
double nominalThroughput(const CostModel &Model, Backend B) {
  SimulationWork W;
  W.NumSpecies = 16;
  W.NumReactions = 32;
  W.TotalFlops = 2.0e6;
  W.MemTrafficBytes = 3.0e5;
  W.StateBytes = 16 * 8 * 4;
  W.ConstantBytes = 4096;
  W.Steps = 400;
  const double T = Model.simulationTime(B, W, 256).total();
  return T > 0.0 ? 256.0 / T : 1.0;
}

/// One queued unit of sweep work: a contiguous run of parameterizations
/// starting at global simulation index First.
struct Shard {
  size_t First = 0;
  uint64_t Count = 0;
  unsigned Attempt = 0;
  double EstimateSeconds = 0.0; ///< Modeled estimate for backlog sizing.
  std::vector<std::vector<double>> RateConstantSets;
  std::vector<std::vector<double>> InitialStates;
};

/// One attempt of a shard on a device: what the retire needs to account
/// for it and deliver it, or to re-queue it.
struct ShardAttempt {
  Shard Sh;
  BatchResult Result;
  bool Failed = false; ///< Killed by the fault hook, or the simulator threw.
  double DispatchSeconds = 0.0; ///< Host wall inside Simulator::run.
  /// Bytes the modeled device moves over PCIe for the shard: its rate
  /// constants and initial states up, one final time per simulation down.
  uint64_t TransferBytes = 0;
};

} // namespace

struct ShardedExecutor::Impl {
  /// One logical device: a personality pinned to a host-worker slice,
  /// its queue, and its running totals.
  struct DeviceState {
    /// The personality, launching on its own virtual device over this
    /// device's slice of host workers.
    std::unique_ptr<Simulator> Sim;
    std::string Name;
    uint64_t Chunk = 0;
    double Weight = 1.0; ///< Relative modeled throughput.
    /// Modeled seconds per simulation, EMA-updated from real shards and
    /// kept warm across runs; seeds shard estimates.
    double EstSecondsPerSim = 0.0;
    std::deque<Shard> Queue;
    double QueuedEstimate = 0.0; ///< Summed estimates of queued shards.
    /// Modeled virtual finish time: completed shards (at their actual
    /// modeled cost) plus queued/running shards (at their estimates).
    /// Drives both coordinator assignment and the steal-profitability
    /// gate, so shard placement depends only on modeled time — never on
    /// which host thread happened to run first. On a single-core host
    /// the devices are time-sliced arbitrarily, and placement decisions
    /// keyed to host idleness would wreck the modeled concurrent
    /// schedule the fleet is meant to emulate.
    double Assigned = 0.0;
    double ModeledBusy = 0.0;
    double HostBusy = 0.0;
    DeviceShardReport Report;
  };

  CostModel Model;
  EngineOptions Engine;
  SchedOptions Sched;
  std::vector<DeviceState> Devices;

  Impl(const CostModel &Model, EngineOptions EngineOpts, SchedOptions S)
      : Model(Model), Engine(std::move(EngineOpts)), Sched(std::move(S)) {
    assert(Sched.enabled() && "sharded executor without devices");
    const unsigned N = static_cast<unsigned>(Sched.Devices.size());
    unsigned Workers = Sched.WorkersPerDevice;
    if (Workers == 0) {
      const unsigned Hc = std::max(1u, std::thread::hardware_concurrency());
      Workers = std::max(1u, Hc / N);
    }
    Devices.resize(N);
    double MaxWeight = 0.0;
    for (unsigned D = 0; D < N; ++D) {
      Devices[D].Name =
          formatString("device%u:%s", D, Sched.Devices[D].c_str());
      auto SimOrErr = createSimulator(Sched.Devices[D], Model, Workers);
      if (!SimOrErr)
        fatalError(SimOrErr.message());
      Devices[D].Sim = std::move(*SimOrErr);
      Devices[D].Weight =
          nominalThroughput(Model, Devices[D].Sim->backend());
      MaxWeight = std::max(MaxWeight, Devices[D].Weight);
    }
    const uint64_t Base = Sched.ChunkSize       ? Sched.ChunkSize
                          : Engine.SubBatchSize ? Engine.SubBatchSize
                                                : 512;
    bool Homogeneous = true;
    for (const DeviceState &D : Devices)
      Homogeneous &= D.Weight == Devices[0].Weight;
    for (DeviceState &D : Devices) {
      if (Homogeneous) {
        // Exactly the base chunk: shard boundaries match a single-device
        // run with SubBatchSize == Base, the bit-exact-oracle contract.
        D.Chunk = Base;
      } else {
        // Scale by relative throughput so every device's shard takes
        // about the same modeled time, rounded up to a multiple of 8
        // and clamped to [8, Base]. The rounding fixes mixed fleets'
        // shard boundaries and modeled makespans.
        uint64_t C = static_cast<uint64_t>(
            static_cast<double>(Base) * D.Weight / MaxWeight + 0.5);
        C = (C + 7) / 8 * 8;
        D.Chunk = std::min<uint64_t>(Base, std::max<uint64_t>(8, C));
      }
    }
  }
};

ShardedExecutor::ShardedExecutor(const CostModel &Model, EngineOptions Engine,
                                 SchedOptions Sched)
    : I(std::make_unique<Impl>(Model, std::move(Engine), std::move(Sched))) {}

ShardedExecutor::~ShardedExecutor() = default;

unsigned ShardedExecutor::numDevices() const {
  return static_cast<unsigned>(I->Devices.size());
}

uint64_t ShardedExecutor::chunkFor(unsigned Device) const {
  assert(Device < I->Devices.size() && "device index out of range");
  return I->Devices[Device].Chunk;
}

ShardScheduleReport ShardedExecutor::streamParameterizations(
    const ReactionNetwork &Net, std::shared_ptr<const CompiledModel> Compiled,
    const ParameterizationSource &Source, OutcomeSink &Sink) {
  Impl &S = *I;
  const unsigned N = numDevices();
  const unsigned MaxAttempts = std::max(1u, S.Sched.MaxShardAttempts);
  const uint64_t QueueDepth = std::max<uint64_t>(1, S.Sched.QueueDepth);
  // Shards generated but not yet delivered (queued + one running per
  // device + pending reorder); bounds scheduler-resident simulations.
  const size_t OutstandingCap = static_cast<size_t>(N) * (QueueDepth + 2);

  TraceSpan RunSpan("sched.run", "sched");
  MetricsRegistry &M = metrics();
  Counter &ShardsC = M.counter("psg.sched.shards");
  Counter &StealsC = M.counter("psg.sched.steals");
  Counter &RequeuesC = M.counter("psg.sched.requeues");
  Counter &LostC = M.counter("psg.sched.lost_simulations");
  Counter &SimsC = M.counter("psg.sched.simulations");
  Histogram &DispatchS = M.histogram("psg.sched.shard.dispatch_s");
  Gauge &UtilG = M.gauge("psg.sched.device_utilization");
  Gauge &ImbalG = M.gauge("psg.sched.shard_imbalance");
  Gauge &MakespanG = M.gauge("psg.sched.modeled_makespan_s");

  if (!Compiled)
    Compiled = compileModel(Net);

  ShardScheduleReport Rep;
  Rep.Devices.resize(N);
  for (unsigned D = 0; D < N; ++D) {
    Impl::DeviceState &Dev = S.Devices[D];
    Dev.Queue.clear();
    Dev.QueuedEstimate = 0.0;
    Dev.Assigned = 0.0;
    Dev.ModeledBusy = 0.0;
    Dev.HostBusy = 0.0;
    Dev.Report = DeviceShardReport();
    Dev.Report.Name = Dev.Name;
    Dev.Report.Simulator = Dev.Sim->name();
  }

  std::mutex Mx;
  std::condition_variable WorkCv;  // Devices wait for queued work.
  std::condition_variable SpaceCv; // Coordinator waits for queue space.
  bool Dry = false;  ///< Source exhausted.
  bool Done = false; ///< Everything delivered; devices may exit.
  size_t NextIndex = 0;
  size_t Outstanding = 0;
  size_t Resident = 0;
  // Modeled PCIe time of the shards' host-device transfers and the part
  // hidden beneath device execution (copy-engine overlap); guarded by
  // Mx, exported as psg.device.transfer_* gauges.
  double TransferModeled = 0.0;
  double TransferHidden = 0.0;
  DeliveryLedger Ledger;

  // Estimated modeled seconds of \p Count simulations on device \p D.
  auto estimateFor = [&](unsigned D, uint64_t Count) {
    const Impl::DeviceState &Dev = S.Devices[D];
    const double PerSim = Dev.EstSecondsPerSim > 0.0
                              ? Dev.EstSecondsPerSim
                              : 1.0 / Dev.Weight;
    return PerSim * static_cast<double>(Count);
  };

  // Hands one completed sub-batch to the delivery ledger; Mx must be
  // held. The ledger owns the exactly-once/ordered-flush invariants
  // (shared with the cross-node coordinator return path); in-process,
  // a shard runs on exactly one device per attempt, so a duplicate
  // acceptance is a scheduler bug.
  auto deliverLocked = [&](size_t First,
                           std::vector<SimulationOutcome> &&Outcomes) {
    DeliveryLedger::Acceptance A =
        Ledger.accept(First, std::move(Outcomes), Sink);
    assert(!A.Duplicate && "in-process shard delivered twice");
    assert(Resident >= A.FlushedSimulations &&
           "resident accounting underflow");
    Resident -= A.FlushedSimulations;
  };

  // Runs one attempt of a shard on device \p Me. Called without Mx:
  // every side effect is confined to the attempt record and the
  // device's own simulator.
  auto runShard = [&](unsigned Me, Shard &&Sh) {
    Impl::DeviceState &D = S.Devices[Me];
    ShardAttempt A;
    A.Sh = std::move(Sh);
    if (S.Sched.FaultInjector &&
        S.Sched.FaultInjector(A.Sh.First, Me, A.Sh.Attempt)) {
      // The dead attempt runs nothing; the shard still owns its
      // parameterizations for the re-queue.
      A.Failed = true;
      return A;
    }
    uint64_t Doubles = A.Sh.Count;
    for (const std::vector<double> &Rates : A.Sh.RateConstantSets)
      Doubles += Rates.size();
    for (const std::vector<double> &Y0 : A.Sh.InitialStates)
      Doubles += Y0.size();
    A.TransferBytes = Doubles * sizeof(double);

    BatchSpec Spec;
    Spec.Model = &Net;
    Spec.Compiled = Compiled;
    Spec.Batch = A.Sh.Count;
    Spec.StartTime = S.Engine.StartTime;
    Spec.EndTime = S.Engine.EndTime;
    Spec.OutputSamples = S.Engine.OutputSamples;
    Spec.Options = S.Engine.Solver;
    Spec.RateConstantSets = std::move(A.Sh.RateConstantSets);
    Spec.InitialStates = std::move(A.Sh.InitialStates);

    TraceSpan ShardSpan("sched.shard", "sched");
    WallTimer Timer;
    try {
      A.Result = D.Sim->run(Spec);
      ShardSpan.setModeledSeconds(A.Result.SimulationTime.total());
    } catch (const std::exception &E) {
      A.Failed = true;
      logMessage(LogLevel::Warning, "sched: %s failed shard @%zu: %s",
                 D.Name.c_str(), A.Sh.First, E.what());
    }
    A.DispatchSeconds = Timer.seconds();
    if (A.Failed) {
      // Reclaim the parameterizations so the re-queued attempt carries
      // identical inputs.
      A.Sh.RateConstantSets = std::move(Spec.RateConstantSets);
      A.Sh.InitialStates = std::move(Spec.InitialStates);
    }
    return A;
  };

  // Retires one shard attempt: scheduling accounting, delivery, and the
  // failure/re-queue path. Mx must be held.
  auto retireLocked = [&](unsigned Me, ShardAttempt &A) {
    Impl::DeviceState &D = S.Devices[Me];
    Shard &Sh = A.Sh;
    if (A.Failed) {
      ++D.Report.Requeues;
      D.Assigned -= Sh.EstimateSeconds; // The dead attempt cost nothing.
      if (Sh.Attempt + 1 < MaxAttempts) {
        // Bounded re-queue: hand the shard to the next device (not the
        // one it just died on) at the front of its queue so recovery
        // is prompt.
        ++Sh.Attempt;
        const unsigned Target = (Me + 1) % N;
        Sh.EstimateSeconds = estimateFor(Target, Sh.Count);
        S.Devices[Target].QueuedEstimate += Sh.EstimateSeconds;
        S.Devices[Target].Assigned += Sh.EstimateSeconds;
        S.Devices[Target].Queue.push_front(std::move(Sh));
        ++Rep.Requeues;
        RequeuesC.add();
        WorkCv.notify_all();
      } else {
        // Attempt budget exhausted: deliver the simulations exactly
        // once, as Aborted failures, so sinks and reductions never
        // see a gap.
        std::vector<SimulationOutcome> Lost(Sh.Count);
        for (SimulationOutcome &O : Lost) {
          O.Result.Status = IntegrationStatus::Aborted;
          O.Result.Detail = formatString(
              "sched: shard dropped after %u attempts", MaxAttempts);
        }
        Rep.LostSimulations += Sh.Count;
        LostC.add(Sh.Count);
        Rep.Stream.Failures += Sh.Count;
        Rep.Stream.Simulations += Sh.Count;
        ++Rep.Stream.SubBatches;
        deliverLocked(Sh.First, std::move(Lost));
        assert(Outstanding > 0 && "outstanding accounting underflow");
        --Outstanding;
        SpaceCv.notify_all();
      }
      return;
    }

    const double Modeled = A.Result.SimulationTime.total();
    const double PerSim = Modeled / static_cast<double>(Sh.Count);
    D.EstSecondsPerSim = D.EstSecondsPerSim > 0.0
                             ? 0.5 * D.EstSecondsPerSim + 0.5 * PerSim
                             : PerSim;
    // Replace the shard's estimate with its actual modeled cost, so
    // the virtual finish time converges on the true device makespan.
    D.Assigned += Modeled - Sh.EstimateSeconds;
    D.ModeledBusy += Modeled;
    D.HostBusy += A.DispatchSeconds;
    const double TransferSeconds =
        static_cast<double>(A.TransferBytes) /
        (S.Model.tunables().PcieBandwidthGBs * 1e9);
    TransferModeled += TransferSeconds;
    TransferHidden += S.Model.hiddenPrepareSeconds(TransferSeconds, Modeled);
    ++D.Report.Shards;
    D.Report.Simulations += Sh.Count;
    ShardsC.add();
    SimsC.add(Sh.Count);
    DispatchS.record(A.DispatchSeconds);

    Rep.Stream.TotalStats.merge(A.Result.TotalStats);
    accumulateModeled(Rep.Stream.IntegrationTime, A.Result.IntegrationTime);
    accumulateModeled(Rep.Stream.SimulationTime, A.Result.SimulationTime);
    Rep.Stream.HostWallSeconds += A.Result.HostWallSeconds;
    Rep.Stream.Failures += A.Result.Failures;
    Rep.Stream.Simulations += Sh.Count;
    ++Rep.Stream.SubBatches;
    deliverLocked(Sh.First, std::move(A.Result.Outcomes));
    assert(Outstanding > 0 && "outstanding accounting underflow");
    --Outstanding;
    SpaceCv.notify_all();
    if (Dry)
      WorkCv.notify_all(); // Virtual finishes moved: re-judge steals.
  };

  auto deviceLoop = [&](unsigned Me) {
    Impl::DeviceState &D = S.Devices[Me];
    std::unique_lock<std::mutex> Lk(Mx);
    for (;;) {
      Shard Sh;
      bool Have = false;
      if (!D.Queue.empty()) {
        Sh = std::move(D.Queue.front());
        D.Queue.pop_front();
        D.QueuedEstimate -= Sh.EstimateSeconds;
        Have = true;
      } else if (Dry) {
        // Source dry and nothing local: steal the newest queued shard
        // from the straggler with the latest modeled virtual finish —
        // but only when the theft is profitable in modeled time, i.e.
        // this device would finish the shard before the victim would
        // have. Host idleness alone is not a reason to steal: on a
        // serializing host every device looks idle in turn, and
        // ungated steals would pile a concurrent fleet's work onto
        // whichever thread the OS favors.
        int Victim = -1;
        double VictimFinish = 0.0;
        for (unsigned J = 0; J < N; ++J)
          if (J != Me && !S.Devices[J].Queue.empty() &&
              (Victim < 0 || S.Devices[J].Assigned > VictimFinish)) {
            Victim = static_cast<int>(J);
            VictimFinish = S.Devices[J].Assigned;
          }
        if (Victim >= 0) {
          Impl::DeviceState &V = S.Devices[static_cast<unsigned>(Victim)];
          const double MyEstimate = estimateFor(Me, V.Queue.back().Count);
          if (D.Assigned + MyEstimate < V.Assigned) {
            Sh = std::move(V.Queue.back());
            V.Queue.pop_back();
            V.QueuedEstimate -= Sh.EstimateSeconds;
            V.Assigned -= Sh.EstimateSeconds;
            Sh.EstimateSeconds = MyEstimate;
            D.Assigned += MyEstimate;
            Have = true;
            ++D.Report.Steals;
            ++Rep.Steals;
            StealsC.add();
          }
        }
      }
      if (Have) {
        // Run unlocked, so other devices keep scheduling meanwhile.
        SpaceCv.notify_all(); // A queue slot freed; coordinator refills.
        Lk.unlock();
        ShardAttempt A = runShard(Me, std::move(Sh));
        Lk.lock();
        retireLocked(Me, A);
        continue;
      }
      if (Done)
        break;
      WorkCv.wait(Lk);
    }
  };

  WallTimer RunTimer;
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (unsigned D = 0; D < N; ++D)
    Threads.emplace_back(deviceLoop, D);

  // Coordinator (this thread): generate shards in emission order and
  // feed the device with the earliest modeled virtual finish time.
  // Always that device — if its queue is full the coordinator waits for
  // it rather than feeding a worse one, so placement is a pure function
  // of modeled time and survives arbitrary host thread scheduling.
  auto bestDevice = [&]() -> unsigned {
    unsigned Best = 0;
    for (unsigned D = 1; D < N; ++D)
      if (S.Devices[D].Assigned < S.Devices[Best].Assigned)
        Best = D;
    return Best;
  };
  {
    std::unique_lock<std::mutex> Lk(Mx);
    while (!Dry) {
      SpaceCv.wait(Lk, [&] {
        return Outstanding < OutstandingCap &&
               S.Devices[bestDevice()].Queue.size() < QueueDepth;
      });
      const unsigned Target = bestDevice();
      const uint64_t Want = S.Devices[Target].Chunk;

      Lk.unlock();
      TraceSpan GenSpan("sched.generate", "sched");
      WallTimer PrepareTimer;
      std::vector<Parameterization> Params;
      Params.reserve(Want);
      const size_t Count = Source(Want, Params);
      Shard Sh;
      if (Count > 0) {
        Sh.Count = Count;
        Sh.RateConstantSets.reserve(Count);
        Sh.InitialStates.reserve(Count);
        for (Parameterization &P : Params) {
          Sh.RateConstantSets.push_back(std::move(P.RateConstants));
          Sh.InitialStates.push_back(std::move(P.InitialState));
        }
      }
      const double PrepareSeconds = PrepareTimer.seconds();
      Lk.lock();
      Rep.Stream.PrepareWallSeconds += PrepareSeconds;
      if (Count == 0) {
        Dry = true;
        WorkCv.notify_all(); // Idle devices switch to stealing/exit.
        break;
      }
      Sh.First = NextIndex;
      NextIndex += Count;
      Sh.EstimateSeconds = estimateFor(Target, Sh.Count);
      S.Devices[Target].QueuedEstimate += Sh.EstimateSeconds;
      S.Devices[Target].Assigned += Sh.EstimateSeconds;
      S.Devices[Target].Queue.push_back(std::move(Sh));
      ++Outstanding;
      Resident += Count;
      Rep.Stream.PeakResidentOutcomes =
          std::max(Rep.Stream.PeakResidentOutcomes, Resident);
      WorkCv.notify_all();
    }
    SpaceCv.wait(Lk, [&] { return Outstanding == 0; });
    Done = true;
    WorkCv.notify_all();
  }
  for (std::thread &T : Threads)
    T.join();
  const double RunWallSeconds = RunTimer.seconds();

  // Fleet summary: devices run concurrently in the model, so the sweep's
  // modeled time is the busiest device, and imbalance is the busy-time
  // spread the work-stealing failed to close.
  double MaxBusy = 0.0, MinBusy = 0.0, SumUtil = 0.0;
  for (unsigned D = 0; D < N; ++D) {
    const double Busy = S.Devices[D].ModeledBusy;
    MaxBusy = std::max(MaxBusy, Busy);
    MinBusy = D == 0 ? Busy : std::min(MinBusy, Busy);
  }
  Rep.ModeledMakespanSeconds = MaxBusy;
  Rep.ShardImbalance = MaxBusy > 0.0 ? (MaxBusy - MinBusy) / MaxBusy : 0.0;
  for (unsigned D = 0; D < N; ++D) {
    Impl::DeviceState &Dev = S.Devices[D];
    Dev.Report.ModeledBusySeconds = Dev.ModeledBusy;
    Dev.Report.HostBusySeconds = Dev.HostBusy;
    Dev.Report.Utilization = MaxBusy > 0.0 ? Dev.ModeledBusy / MaxBusy : 0.0;
    SumUtil += Dev.Report.Utilization;
    M.gauge(formatString("psg.sched.device.%u.utilization", D))
        .set(Dev.Report.Utilization);
    Rep.Devices[D] = Dev.Report;
  }
  Rep.Shards = Rep.Stream.SubBatches;
  UtilG.set(N > 0 ? SumUtil / N : 0.0);
  ImbalG.set(Rep.ShardImbalance);
  MakespanG.set(Rep.ModeledMakespanSeconds);
  M.gauge("psg.device.transfer_modeled_s").set(TransferModeled);
  M.gauge("psg.device.transfer_hidden_s").set(TransferHidden);
  M.gauge("psg.device.transfer_overlap")
      .set(TransferModeled > 0.0 ? TransferHidden / TransferModeled : 0.0);

  Rep.Stream.HiddenPrepareSeconds = S.Model.hiddenPrepareSeconds(
      Rep.Stream.PrepareWallSeconds, Rep.ModeledMakespanSeconds);
  Rep.Stream.OverlapRatio =
      Rep.Stream.PrepareWallSeconds > 0.0
          ? Rep.Stream.HiddenPrepareSeconds / Rep.Stream.PrepareWallSeconds
          : 0.0;
  M.gauge("psg.engine.peak_resident_outcomes")
      .set(static_cast<double>(Rep.Stream.PeakResidentOutcomes));
  RunSpan.setModeledSeconds(Rep.ModeledMakespanSeconds);
  logMessage(LogLevel::Info,
             "sched: %zu sims over %u devices in %llu shards, modeled "
             "makespan %.3gs (imbalance %.3f, %llu steals, %llu requeues, "
             "host %.3gs)",
             Rep.Stream.Simulations, N,
             (unsigned long long)Rep.Shards, Rep.ModeledMakespanSeconds,
             Rep.ShardImbalance, (unsigned long long)Rep.Steals,
             (unsigned long long)Rep.Requeues, RunWallSeconds);
  Rep.Stream.Metrics = M.snapshot();
  return Rep;
}
