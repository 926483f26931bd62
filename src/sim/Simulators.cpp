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
#include "support/Trace.h"

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

/// The rule \p Spec's window breaks, or null when it is valid: a finite
/// window with StartTime < EndTime (ode/SolverOptions.h), and 0 output
/// samples or at least 2, since the sample grid holds both endpoints.
const char *invalidWindowRule(const BatchSpec &Spec) {
  if (!isValidWindow(Spec.StartTime, Spec.EndTime))
    return "the window must be finite with StartTime < EndTime";
  if (Spec.OutputSamples == 1)
    return "OutputSamples must be 0 or at least 2";
  return nullptr;
}

/// The result of a batch refused for breaking \p Rule: every simulation
/// failed with status Aborted and the rule as its detail, and nothing was
/// probed or integrated.
BatchResult rejectBatch(const BatchSpec &Spec, const char *Rule) {
  BatchResult R;
  R.Outcomes.resize(Spec.Batch);
  for (SimulationOutcome &O : R.Outcomes) {
    O.Result.Status = IntegrationStatus::Aborted;
    O.Result.FinalTime = Spec.StartTime;
    O.Result.Detail = Rule;
  }
  R.Failures = R.Outcomes.size();
  return R;
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
// The shared batch loop.
//===----------------------------------------------------------------------===//

BatchSimulator::BatchSimulator(CostModel M, const char *KernelName)
    : Model(std::move(M)) {
  if (KernelName) {
    KernelSpan = std::string("vgpu.kernel.") + KernelName;
    Pool.emplace();
  }
}

BatchResult BatchSimulator::run(const BatchSpec &Spec) {
  assert(Spec.Model && Spec.Batch > 0 && "malformed batch spec");
  if (const char *Rule = invalidWindowRule(Spec))
    return rejectBatch(Spec, Rule);
  WallTimer Timer;
  std::vector<SimulationOutcome> Outcomes(Spec.Batch);
  // P1 happens once per batch in resolveModel (or once per network when
  // the engine passes a cached compilation down); each worker slot holds
  // a persistent parameterized view of the shared model.
  std::shared_ptr<const CompiledModel> Shared = resolveModel(Spec);
  Workers.ensure(Pool ? Pool->parallelism() : 1);
  auto SimulateOne = [&](size_t I, unsigned Worker) {
    SimWorkerSlot &Slot = Workers[Worker];
    // simulate() builds the outcome in a local that is published with one
    // move: neighbouring workers write adjacent Outcomes slots, and
    // incremental writes would ping-pong the shared cache line.
    Outcomes[I] = simulate(Spec, I, Slot.bind(Shared), Slot);
  };
  if (Pool) {
    TraceSpan Span(KernelSpan, "vgpu");
    Pool->parallelFor(Spec.Batch, SimulateOne);
  } else {
    for (uint64_t I = 0; I < Spec.Batch; ++I)
      SimulateOne(I, 0);
  }
  return finalizeBatch(Spec, Model, backend(), *Shared, std::move(Outcomes),
                       Timer.seconds());
}

//===----------------------------------------------------------------------===//
// CPU baselines.
//===----------------------------------------------------------------------===//

CpuSolverSimulator::CpuSolverSimulator(std::string Solver,
                                       std::string Display, CostModel M)
    : BatchSimulator(std::move(M), nullptr), SolverName(std::move(Solver)),
      DisplayName(std::move(Display)) {}

SimulationOutcome CpuSolverSimulator::simulate(const BatchSpec &Spec,
                                               size_t Index,
                                               CompiledOdeSystem &Sys,
                                               SimWorkerSlot &Slot) {
  std::vector<double> Y = configureSimulation(Spec, Sys, Index);
  return runOne(Spec, Sys, Slot.solver(SolverName), std::move(Y));
}

//===----------------------------------------------------------------------===//
// Coarse-grained GPU (cupSODA-like).
//===----------------------------------------------------------------------===//

CoarseGpuSimulator::CoarseGpuSimulator(CostModel M)
    : BatchSimulator(std::move(M), "cupsoda-batch") {}

SimulationOutcome CoarseGpuSimulator::simulate(const BatchSpec &Spec,
                                               size_t Index,
                                               CompiledOdeSystem &Sys,
                                               SimWorkerSlot &Slot) {
  std::vector<double> Y = configureSimulation(Spec, Sys, Index);
  return runOne(Spec, Sys, Slot.solver("lsoda"), std::move(Y));
}

//===----------------------------------------------------------------------===//
// Fine-grained GPU (LASSIE-like).
//===----------------------------------------------------------------------===//

FineGpuSimulator::FineGpuSimulator(CostModel M)
    : BatchSimulator(std::move(M), "lassie-batch") {}

SimulationOutcome FineGpuSimulator::simulate(const BatchSpec &Spec,
                                             size_t Index,
                                             CompiledOdeSystem &Sys,
                                             SimWorkerSlot &Slot) {
  SimulationOutcome Out = runOne(Spec, Sys, Slot.solver("rkf45"),
                                 configureSimulation(Spec, Sys, Index));
  if (Out.Result.ok())
    return Out;
  // LASSIE switches to first-order BDF under stiffness.
  static Counter &StiffnessReroutes =
      metrics().counter("psg.engine.stiffness_reroutes");
  const IntegrationStats ExplicitCost = Out.Result.Stats;
  StiffnessReroutes.add();
  Out = runOne(Spec, Sys, Slot.solver("bdf"),
               configureSimulation(Spec, Sys, Index));
  Out.Result.Stats.merge(ExplicitCost);
  ++Out.Result.Stats.SolverSwitches;
  return Out;
}

//===----------------------------------------------------------------------===//
// Fine+coarse engine (the paper's contribution).
//===----------------------------------------------------------------------===//

FineCoarseSimulator::FineCoarseSimulator(CostModel M)
    : BatchSimulator(std::move(M), "psg-engine-batch") {}

SimulationOutcome FineCoarseSimulator::simulate(const BatchSpec &Spec,
                                                size_t Index,
                                                CompiledOdeSystem &Sys,
                                                SimWorkerSlot &Slot) {
  static Counter &RoutedExplicit =
      metrics().counter("psg.engine.routed_explicit");
  static Counter &RoutedImplicit =
      metrics().counter("psg.engine.routed_implicit");
  static Counter &StiffnessReroutes =
      metrics().counter("psg.engine.stiffness_reroutes");

  // P2-P4 run per simulation: the P2 routing heuristic, the explicit
  // path, and the implicit path with re-dispatch of a failed explicit
  // simulation.
  std::vector<double> Y = configureSimulation(Spec, Sys, Index);
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
      Y = configureSimulation(Spec, Sys, Index);
    }
  } else {
    RoutedImplicit.add();
  }
  if (UseImplicit) {
    // P4: Radau IIA.
    Local = runOne(Spec, Sys, Slot.solver("radau5"), std::move(Y));
  }
  // P5: collection happens through the recorders.
  Local.Result.Stats.merge(RoutingCost);
  return Local;
}

//===----------------------------------------------------------------------===//
// Factories.
//===----------------------------------------------------------------------===//

namespace {
std::unique_ptr<Simulator> makeCpuLsoda(const CostModel &Model) {
  return std::make_unique<CpuSolverSimulator>("lsoda", "cpu-lsoda", Model);
}

std::unique_ptr<Simulator> makeCpuVode(const CostModel &Model) {
  return std::make_unique<CpuSolverSimulator>("vode", "cpu-vode", Model);
}

template <typename GpuSimulator>
std::unique_ptr<Simulator> makeGpu(const CostModel &Model) {
  return std::make_unique<GpuSimulator>(Model);
}

/// One personality: its name and how to construct it.
struct Personality {
  const char *Name;
  std::unique_ptr<Simulator> (*Make)(const CostModel &Model);
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
psg::createSimulator(const std::string &Name, const CostModel &Model) {
  if (const Personality *P = findPersonality(Name))
    return P->Make(Model);
  return checkSimulatorName(Name);
}
