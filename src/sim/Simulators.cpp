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

namespace {
std::unique_ptr<Simulator> makeCpuLsoda(const CostModel &Model, unsigned) {
  return std::make_unique<CpuSolverSimulator>("lsoda", "cpu-lsoda", Model);
}

std::unique_ptr<Simulator> makeCpuVode(const CostModel &Model, unsigned) {
  return std::make_unique<CpuSolverSimulator>("vode", "cpu-vode", Model);
}

template <typename GpuSimulator>
std::unique_ptr<Simulator> makeGpu(const CostModel &Model,
                                   unsigned HostWorkers) {
  return std::make_unique<GpuSimulator>(Model, HostWorkers);
}

/// One personality: its name and how to construct it. HostWorkers caps a
/// GPU personality's host pool; the CPU personalities ignore it.
struct Personality {
  const char *Name;
  std::unique_ptr<Simulator> (*Make)(const CostModel &Model,
                                     unsigned HostWorkers);
};

/// Every personality, in the order of the evaluation's comparison maps:
/// the one list of names that the factories and the name check read.
const Personality Personalities[] = {
    {"cpu-lsoda", makeCpuLsoda},
    {"cpu-vode", makeCpuVode},
    {"gpu-coarse", makeGpu<CoarseGpuSimulator>},
    {"gpu-fine", makeGpu<FineGpuSimulator>},
    {"psg-engine", makeGpu<FineCoarseSimulator>},
};

const Personality *findPersonality(const std::string &Name) {
  for (const Personality &P : Personalities)
    if (Name == P.Name)
      return &P;
  return nullptr;
}
} // namespace

std::vector<std::string> psg::simulatorNames() {
  std::vector<std::string> Names;
  for (const Personality &P : Personalities)
    Names.push_back(P.Name);
  return Names;
}

Status psg::checkSimulatorName(const std::string &Name) {
  if (findPersonality(Name))
    return Status::success();
  std::string Known;
  for (const Personality &P : Personalities) {
    if (!Known.empty())
      Known += ", ";
    Known += P.Name;
  }
  return Status::failure("unknown simulator '" + Name + "' (known: " +
                         Known + ")");
}

std::vector<std::unique_ptr<Simulator>>
psg::createAllSimulators(const CostModel &Model) {
  std::vector<std::unique_ptr<Simulator>> All;
  for (const std::string &Name : simulatorNames())
    All.push_back(std::move(*createSimulator(Name, Model)));
  return All;
}

ErrorOr<std::unique_ptr<Simulator>>
psg::createSimulator(const std::string &Name, const CostModel &Model,
                     unsigned HostWorkers) {
  if (const Personality *P = findPersonality(Name))
    return P->Make(Model, HostWorkers);
  return checkSimulatorName(Name);
}
