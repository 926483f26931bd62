//===- sim/Simulators.cpp -------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulators.h"

#include "linalg/Eigen.h"
#include "sim/WorkProfile.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>

using namespace psg;

namespace {
/// Resolves the shared compiled model for a batch: reuses the caller's
/// compilation when the spec carries one (the engine's zero-recompile
/// path), or compiles the network once for the whole batch.
std::shared_ptr<const CompiledModel> resolveModel(const BatchSpec &Spec) {
  if (Spec.Compiled) {
    static Counter &Reuses = metrics().counter("psg.rbm.compile_reuses");
    Reuses.add();
    return Spec.Compiled;
  }
  return compileModel(*Spec.Model);
}

/// Applies the Index-th parameterization of \p Spec to \p Sys and returns
/// the matching initial state. Views persist across simulations, so a
/// missing rate-constant set must restore the model defaults rather than
/// inherit whatever the previous simulation wrote.
std::vector<double> configureSimulation(const BatchSpec &Spec,
                                        CompiledOdeSystem &Sys,
                                        size_t Index) {
  if (Index < Spec.RateConstantSets.size())
    Sys.setRateConstants(Spec.RateConstantSets[Index].data(),
                         Spec.RateConstantSets[Index].size());
  else
    Sys.resetRateConstants();
  if (Index < Spec.InitialStates.size())
    return Spec.InitialStates[Index];
  return Spec.Model->initialState();
}

/// Runs one simulation with \p Solver, recording a trajectory when
/// requested. Returns the outcome.
SimulationOutcome runOne(const BatchSpec &Spec, CompiledOdeSystem &Sys,
                         OdeSolver &Solver, std::vector<double> Y) {
  SimulationOutcome Out;
  Out.SolverUsed = Solver.name();
  if (Spec.OutputSamples > 0) {
    TrajectoryRecorder Recorder(
        uniformGrid(Spec.StartTime, Spec.EndTime, Spec.OutputSamples),
        Sys.dimension());
    Recorder.recordInitial(Spec.StartTime, Y.data());
    Out.Result = Solver.integrate(Sys, Spec.StartTime, Spec.EndTime, Y,
                                  Spec.Options, &Recorder);
    Out.Dynamics = Recorder.trajectory();
  } else {
    Out.Result = Solver.integrate(Sys, Spec.StartTime, Spec.EndTime, Y,
                                  Spec.Options);
  }
  return Out;
}

/// Outcome storage for one batch: adopts the recycled vector from
/// Spec.OutcomeBuffer when present (streaming runs hand the previous
/// sub-batch's released storage back) before sizing it to the batch.
std::vector<SimulationOutcome> makeOutcomeStorage(const BatchSpec &Spec) {
  std::vector<SimulationOutcome> Outcomes;
  if (Spec.OutcomeBuffer) {
    static Counter &BufferReuses =
        metrics().counter("psg.sim.outcome_buffer_reuses");
    Outcomes = std::move(*Spec.OutcomeBuffer);
    Outcomes.clear();
    if (Outcomes.capacity() > 0)
      BufferReuses.add();
  }
  Outcomes.resize(Spec.Batch);
  return Outcomes;
}

/// Assembles the common parts of a BatchResult.
BatchResult finalizeBatch(const BatchSpec &Spec, const CostModel &Model,
                          Backend B, const CompiledModel &Compiled,
                          std::vector<SimulationOutcome> Outcomes,
                          double WallSeconds) {
  BatchResult R;
  R.Outcomes = std::move(Outcomes);
  for (const SimulationOutcome &O : R.Outcomes) {
    R.TotalStats.merge(O.Result.Stats);
    if (!O.Result.ok())
      ++R.Failures;
  }
  R.AverageWork = computeSimulationWork(Compiled, R.TotalStats, Spec.Batch,
                                        Spec.OutputSamples);
  R.IntegrationTime = Model.integrationTime(B, R.AverageWork, Spec.Batch);
  R.SimulationTime = Model.simulationTime(B, R.AverageWork, Spec.Batch);
  R.HostWallSeconds = WallSeconds;
  return R;
}
} // namespace

Simulator::~Simulator() = default;

//===----------------------------------------------------------------------===//
// CPU baselines.
//===----------------------------------------------------------------------===//

CpuSolverSimulator::CpuSolverSimulator(std::string Solver,
                                       std::string Display, CostModel M)
    : SolverName(std::move(Solver)), DisplayName(std::move(Display)),
      Model(std::move(M)) {}

BatchResult CpuSolverSimulator::run(const BatchSpec &Spec) {
  assert(Spec.Model && Spec.Batch > 0 && "malformed batch spec");
  WallTimer Timer;
  std::vector<SimulationOutcome> Outcomes = makeOutcomeStorage(Spec);
  std::shared_ptr<const CompiledModel> Shared = resolveModel(Spec);
  Workers.ensure(1);
  SimWorkerSlot &Slot = Workers[0];
  CompiledOdeSystem &Sys = Slot.bind(Shared);
  OdeSolver &Solver = Slot.solver(SolverName);
  for (uint64_t I = 0; I < Spec.Batch; ++I) {
    std::vector<double> Y = configureSimulation(Spec, Sys, I);
    Outcomes[I] = runOne(Spec, Sys, Solver, std::move(Y));
  }
  return finalizeBatch(Spec, Model, Backend::CpuSerial, *Shared,
                       std::move(Outcomes), Timer.seconds());
}

//===----------------------------------------------------------------------===//
// Lane-batched CPU (lockstep SIMD lanes).
//===----------------------------------------------------------------------===//

SimdLaneSimulator::SimdLaneSimulator(CostModel M, unsigned LaneWidth,
                                     unsigned HostWorkers)
    : Model(std::move(M)), Device(Model.gpu(), HostWorkers),
      LaneWidth(LaneWidth) {
  assert(LaneWidth >= 1 && "need at least one lane");
}

BatchResult SimdLaneSimulator::run(const BatchSpec &Spec) {
  assert(Spec.Model && Spec.Batch > 0 && "malformed batch spec");
  WallTimer Timer;
  std::vector<SimulationOutcome> Outcomes = makeOutcomeStorage(Spec);
  std::shared_ptr<const CompiledModel> Shared = resolveModel(Spec);
  const unsigned L = LaneWidth;
  const uint64_t Groups = (Spec.Batch + L - 1) / L;
  const std::vector<double> DefaultY0 = Spec.Model->initialState();
  Workers.ensure(Device.hostParallelism());

  MetricsRegistry &M = metrics();
  Counter &Replays = M.counter("psg.sim.lane_step_replays");
  Counter &Fallbacks = M.counter("psg.sim.lane_fallbacks");
  Gauge &Occupancy = M.gauge("psg.sim.lane_occupancy");
  std::atomic<uint64_t> ActiveSteps{0}, SlotSteps{0};

  // One virtual thread per lane group: deterministic grouping (lane l of
  // group g is simulation g*L + l), so reruns and warm/cold reruns see
  // identical lockstep cohorts.
  Device.launchKernel("simd-lane-batch", Groups, 32, [&](KernelContext &Ctx) {
    const uint64_t G = Ctx.threadIndex();
    SimWorkerSlot &Slot = Workers[Ctx.workerIndex()];
    LaneBatchOdeSystem &Sys = Slot.laneSystem(Shared, L);
    LockstepDriver &Driver = Slot.lockstep(LockstepTableau::Dopri5);
    const size_t N = Sys.dimension();
    const uint64_t First = G * L;
    const unsigned Count =
        static_cast<unsigned>(std::min<uint64_t>(L, Spec.Batch - First));

    // Scatter each lane's parameterization and initial state into SoA.
    // Ragged final groups pad with inactive copies of lane 0 so every
    // lane computes finite arithmetic.
    LaneBuffer Y(N * L);
    std::vector<bool> Active(L, false);
    std::vector<std::optional<TrajectoryRecorder>> Recorders(L);
    std::vector<StepObserver *> Obs(L, nullptr);
    for (unsigned Ln = 0; Ln < L; ++Ln) {
      const uint64_t I = First + std::min<unsigned>(Ln, Count - 1);
      if (I < Spec.RateConstantSets.size())
        Sys.setLaneRateConstants(Ln, Spec.RateConstantSets[I].data(),
                                 Spec.RateConstantSets[I].size());
      else
        Sys.resetLaneRateConstants(Ln);
      const std::vector<double> &Y0 =
          I < Spec.InitialStates.size() ? Spec.InitialStates[I] : DefaultY0;
      for (size_t S = 0; S < N; ++S)
        Y[S * L + Ln] = Y0[S];
      if (Ln < Count) {
        Active[Ln] = true;
        if (Spec.OutputSamples > 0) {
          Recorders[Ln].emplace(
              uniformGrid(Spec.StartTime, Spec.EndTime, Spec.OutputSamples),
              N);
          Recorders[Ln]->recordInitial(Spec.StartTime, Y0.data());
          Obs[Ln] = &*Recorders[Ln];
        }
      }
    }

    LaneIntegrationReport Report = Driver.integrate(
        Sys, Spec.StartTime, Spec.EndTime, Y.data(), Spec.Options, Active,
        Spec.OutputSamples > 0 ? Obs.data() : nullptr);
    ActiveSteps.fetch_add(Report.ActiveLaneSteps,
                          std::memory_order_relaxed);
    SlotSteps.fetch_add(Report.LaneSlotSteps, std::memory_order_relaxed);
    if (Report.LaneStepReplays > 0)
      Replays.add(Report.LaneStepReplays);

    for (unsigned Ln = 0; Ln < Count; ++Ln) {
      const uint64_t I = First + Ln;
      SimulationOutcome Local;
      Local.Result = std::move(Report.Lane[Ln]);
      Local.SolverUsed = "lockstep-dopri5";
      if (Local.Result.ok()) {
        if (Recorders[Ln])
          Local.Dynamics = Recorders[Ln]->trajectory();
      } else {
        // The lockstep could not finish this lane (stiffness, vanishing
        // shared step): re-run it scalar, keeping the lockstep cost —
        // the same accounting as gpu-fine's BDF fallback.
        Fallbacks.add();
        const IntegrationStats LockstepCost = Local.Result.Stats;
        CompiledOdeSystem &Scalar = Slot.bind(Shared);
        std::vector<double> Y0 = configureSimulation(Spec, Scalar, I);
        Local = runOne(Spec, Scalar, Slot.solver("lsoda"), std::move(Y0));
        Local.Result.Stats.merge(LockstepCost);
        ++Local.Result.Stats.SolverSwitches;
      }
      Outcomes[I] = std::move(Local);
    }
  });

  const uint64_t Slots = SlotSteps.load(std::memory_order_relaxed);
  if (Slots > 0)
    Occupancy.set(static_cast<double>(
                      ActiveSteps.load(std::memory_order_relaxed)) /
                  static_cast<double>(Slots));
  return finalizeBatch(Spec, Model, Backend::CpuSimdLanes, *Shared,
                       std::move(Outcomes), Timer.seconds());
}

//===----------------------------------------------------------------------===//
// Coarse-grained GPU (cupSODA-like).
//===----------------------------------------------------------------------===//

CoarseGpuSimulator::CoarseGpuSimulator(CostModel M, unsigned HostWorkers)
    : Model(std::move(M)), Device(Model.gpu(), HostWorkers) {}

BatchResult CoarseGpuSimulator::run(const BatchSpec &Spec) {
  assert(Spec.Model && Spec.Batch > 0 && "malformed batch spec");
  WallTimer Timer;
  std::vector<SimulationOutcome> Outcomes = makeOutcomeStorage(Spec);
  std::shared_ptr<const CompiledModel> Shared = resolveModel(Spec);
  Workers.ensure(Device.hostParallelism());
  Device.launchKernel("cupsoda-batch", Spec.Batch, 32, [&](KernelContext &Ctx) {
    const size_t I = Ctx.threadIndex();
    SimWorkerSlot &Slot = Workers[Ctx.workerIndex()];
    CompiledOdeSystem &Sys = Slot.bind(Shared);
    std::vector<double> Y = configureSimulation(Spec, Sys, I);
    // Build the outcome locally and publish it once: neighbouring threads
    // write adjacent Outcomes slots, and incremental writes would
    // ping-pong the shared cache line.
    SimulationOutcome Local =
        runOne(Spec, Sys, Slot.solver("lsoda"), std::move(Y));
    Outcomes[I] = std::move(Local);
  });
  return finalizeBatch(Spec, Model, Backend::GpuCoarse, *Shared,
                       std::move(Outcomes), Timer.seconds());
}

//===----------------------------------------------------------------------===//
// Fine-grained GPU (LASSIE-like).
//===----------------------------------------------------------------------===//

FineGpuSimulator::FineGpuSimulator(CostModel M, unsigned HostWorkers)
    : Model(std::move(M)), Device(Model.gpu(), HostWorkers) {}

BatchResult FineGpuSimulator::run(const BatchSpec &Spec) {
  assert(Spec.Model && Spec.Batch > 0 && "malformed batch spec");
  WallTimer Timer;
  std::vector<SimulationOutcome> Outcomes = makeOutcomeStorage(Spec);
  std::shared_ptr<const CompiledModel> Shared = resolveModel(Spec);
  Workers.ensure(Device.hostParallelism());
  // Fine-grained tools process one simulation at a time; each simulation
  // runs as one kernel pipeline whose threads are the ODEs.
  for (uint64_t I = 0; I < Spec.Batch; ++I) {
    Device.launchKernel(
        "lassie-sim", std::max<uint64_t>(Shared->NumSpecies, 1), 32,
        [&](KernelContext &Ctx) {
          if (Ctx.threadIndex() != 0)
            return; // The numerics run once; threads model ODE lanes.
          SimWorkerSlot &Slot = Workers[Ctx.workerIndex()];
          CompiledOdeSystem &Sys = Slot.bind(Shared);
          std::vector<double> Y = configureSimulation(Spec, Sys, I);
          SimulationOutcome Local =
              runOne(Spec, Sys, Slot.solver("rkf45"), Y);
          if (!Local.Result.ok()) {
            // LASSIE switches to first-order BDF under stiffness.
            const IntegrationStats ExplicitCost = Local.Result.Stats;
            metrics().counter("psg.engine.stiffness_reroutes").add();
            Local = runOne(Spec, Sys, Slot.solver("bdf"),
                           configureSimulation(Spec, Sys, I));
            Local.Result.Stats.merge(ExplicitCost);
            ++Local.Result.Stats.SolverSwitches;
          }
          Outcomes[I] = std::move(Local);
        });
  }
  return finalizeBatch(Spec, Model, Backend::GpuFine, *Shared,
                       std::move(Outcomes), Timer.seconds());
}

//===----------------------------------------------------------------------===//
// Fine+coarse engine (the paper's contribution).
//===----------------------------------------------------------------------===//

FineCoarseSimulator::FineCoarseSimulator(CostModel M, unsigned HostWorkers)
    : Model(std::move(M)), Device(Model.gpu(), HostWorkers) {}

BatchResult FineCoarseSimulator::run(const BatchSpec &Spec) {
  assert(Spec.Model && Spec.Batch > 0 && "malformed batch spec");
  WallTimer Timer;
  std::vector<SimulationOutcome> Outcomes = makeOutcomeStorage(Spec);
  MetricsRegistry &M = metrics();
  Counter &RoutedExplicit = M.counter("psg.engine.routed_explicit");
  Counter &RoutedImplicit = M.counter("psg.engine.routed_implicit");
  Counter &StiffnessReroutes = M.counter("psg.engine.stiffness_reroutes");

  // P1 happens once per batch in resolveModel (or once per network when
  // the engine passes a cached compilation down); each host worker holds
  // a persistent parameterized view of the shared model. P2-P4 run inside
  // one parent grid: the P2 routing heuristic, the explicit path, and the
  // implicit path with re-dispatch of failed explicit simulations.
  std::shared_ptr<const CompiledModel> Shared = resolveModel(Spec);
  Workers.ensure(Device.hostParallelism());
  Device.launchKernel("psg-engine-batch", Spec.Batch, 32,
                      [&](KernelContext &Ctx) {
    const size_t I = Ctx.threadIndex();
    SimWorkerSlot &Slot = Workers[Ctx.workerIndex()];
    CompiledOdeSystem &Sys = Slot.bind(Shared);
    std::vector<double> Y = configureSimulation(Spec, Sys, I);
    SimulationOutcome Local;

    bool UseImplicit = ForcedMethod == "radau5";
    IntegrationStats RoutingCost;
    if (ForcedMethod == "auto") {
      // P2: dominant eigenvalue of the Jacobian at the initial state.
      std::vector<double> F0(Sys.dimension());
      Sys.rhs(Spec.StartTime, Y.data(), F0.data());
      ++RoutingCost.RhsEvaluations;
      Matrix J;
      RoutingCost.RhsEvaluations +=
          Sys.jacobian(Spec.StartTime, Y.data(), F0.data(), J);
      ++RoutingCost.JacobianEvaluations;
      UseImplicit = powerIterationSpectralRadius(J) >= StiffnessThreshold;
    }

    if (!UseImplicit) {
      // P3: DOPRI5 with stiffness detection enabled.
      RoutedExplicit.add();
      Local = runOne(Spec, Sys, Slot.solver("dopri5"), Y);
      if (!Local.Result.ok()) {
        // Re-dispatch to P4 from the initial state, keeping the cost of
        // the failed explicit attempt.
        RoutingCost.merge(Local.Result.Stats);
        ++RoutingCost.SolverSwitches;
        StiffnessReroutes.add();
        UseImplicit = true;
        Y = configureSimulation(Spec, Sys, I);
      }
    } else {
      RoutedImplicit.add();
    }
    if (UseImplicit) {
      // P4: Radau IIA.
      Local = runOne(Spec, Sys, Slot.solver("radau5"), std::move(Y));
    }
    Local.Result.Stats.merge(RoutingCost);
    Outcomes[I] = std::move(Local);
  });
  // P5: collection happened through the recorders.
  return finalizeBatch(Spec, Model, Backend::GpuFineCoarse, *Shared,
                       std::move(Outcomes), Timer.seconds());
}

//===----------------------------------------------------------------------===//
// Factories.
//===----------------------------------------------------------------------===//

std::vector<std::unique_ptr<Simulator>>
psg::createAllSimulators(const CostModel &Model) {
  std::vector<std::unique_ptr<Simulator>> All;
  All.push_back(
      std::make_unique<CpuSolverSimulator>("lsoda", "cpu-lsoda", Model));
  All.push_back(
      std::make_unique<CpuSolverSimulator>("vode", "cpu-vode", Model));
  All.push_back(std::make_unique<SimdLaneSimulator>(Model));
  All.push_back(std::make_unique<CoarseGpuSimulator>(Model));
  All.push_back(std::make_unique<FineGpuSimulator>(Model));
  All.push_back(std::make_unique<FineCoarseSimulator>(Model));
  return All;
}

ErrorOr<std::unique_ptr<Simulator>>
psg::createSimulator(const std::string &Name, const CostModel &Model,
                     unsigned HostWorkers) {
  if (Name == "cpu-lsoda")
    return std::unique_ptr<Simulator>(
        std::make_unique<CpuSolverSimulator>("lsoda", "cpu-lsoda", Model));
  if (Name == "cpu-vode")
    return std::unique_ptr<Simulator>(
        std::make_unique<CpuSolverSimulator>("vode", "cpu-vode", Model));
  if (Name == "simd-lanes")
    return std::unique_ptr<Simulator>(std::make_unique<SimdLaneSimulator>(
        Model, /*LaneWidth=*/8, HostWorkers));
  if (Name == "gpu-coarse")
    return std::unique_ptr<Simulator>(
        std::make_unique<CoarseGpuSimulator>(Model, HostWorkers));
  if (Name == "gpu-fine")
    return std::unique_ptr<Simulator>(
        std::make_unique<FineGpuSimulator>(Model, HostWorkers));
  if (Name == "psg-engine")
    return std::unique_ptr<Simulator>(
        std::make_unique<FineCoarseSimulator>(Model, HostWorkers));
  return ErrorOr<std::unique_ptr<Simulator>>::failure(
      "unknown simulator '" + Name + "'");
}
