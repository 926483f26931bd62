//===- ode/SolverRegistry.cpp ---------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "ode/SolverRegistry.h"

#include "ode/Dopri5.h"
#include "ode/Lsoda.h"
#include "ode/Multistep.h"
#include "ode/Radau5.h"
#include "ode/Rkf45.h"
#include "ode/RungeKutta4.h"
#include "ode/Vode.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace psg;

namespace {
/// Transparent decorator metering every integrate() call into the
/// process-wide registry under "psg.ode.<name>.*". Registry lookups
/// happen once at construction; the per-call cost is relaxed atomics
/// plus one wall-clock read pair.
class MeteredSolver final : public OdeSolver {
public:
  explicit MeteredSolver(std::unique_ptr<OdeSolver> Wrapped)
      : Inner(std::move(Wrapped)), SpanName("ode.integrate." + Inner->name()) {
    const std::string Prefix = "psg.ode." + Inner->name();
    MetricsRegistry &M = metrics();
    Integrations = &M.counter(Prefix + ".integrations");
    AcceptedSteps = &M.counter(Prefix + ".accepted_steps");
    RejectedSteps = &M.counter(Prefix + ".rejected_steps");
    RhsEvaluations = &M.counter(Prefix + ".rhs_evaluations");
    JacobianEvaluations = &M.counter(Prefix + ".jacobian_evaluations");
    LuFactorizations = &M.counter(Prefix + ".lu_factorizations");
    ComplexLuFactorizations =
        &M.counter(Prefix + ".complex_lu_factorizations");
    LuSolves = &M.counter(Prefix + ".lu_solves");
    NewtonIterations = &M.counter(Prefix + ".newton_iterations");
    Failures = &M.counter(Prefix + ".failures");
    StiffnessDetections = &M.counter(Prefix + ".stiffness_detections");
    MethodSwitches = &M.counter(Prefix + ".method_switches");
    WallSeconds = &M.histogram(Prefix + ".integrate_wall_s");
  }

  std::string name() const override { return Inner->name(); }
  bool isImplicit() const override { return Inner->isImplicit(); }

  IntegrationResult integrate(const OdeSystem &Sys, double T0, double TEnd,
                              std::vector<double> &Y,
                              const SolverOptions &Opts,
                              StepObserver *Observer) override {
    TraceSpan Span(SpanName, "ode");
    WallTimer Timer;
    IntegrationResult Result =
        Inner->integrate(Sys, T0, TEnd, Y, Opts, Observer);
    WallSeconds->record(Timer.seconds());
    Integrations->add();
    AcceptedSteps->add(Result.Stats.AcceptedSteps);
    RejectedSteps->add(Result.Stats.RejectedSteps);
    RhsEvaluations->add(Result.Stats.RhsEvaluations);
    JacobianEvaluations->add(Result.Stats.JacobianEvaluations);
    LuFactorizations->add(Result.Stats.LuFactorizations);
    ComplexLuFactorizations->add(Result.Stats.ComplexLuFactorizations);
    LuSolves->add(Result.Stats.LuSolves);
    NewtonIterations->add(Result.Stats.NewtonIterations);
    if (Result.Stats.SolverSwitches)
      MethodSwitches->add(Result.Stats.SolverSwitches);
    if (Result.Status == IntegrationStatus::StiffnessDetected)
      StiffnessDetections->add();
    if (!Result.ok())
      Failures->add();
    return Result;
  }

private:
  std::unique_ptr<OdeSolver> Inner;
  std::string SpanName;
  Counter *Integrations = nullptr;
  Counter *AcceptedSteps = nullptr;
  Counter *RejectedSteps = nullptr;
  Counter *RhsEvaluations = nullptr;
  Counter *JacobianEvaluations = nullptr;
  Counter *LuFactorizations = nullptr;
  Counter *ComplexLuFactorizations = nullptr;
  Counter *LuSolves = nullptr;
  Counter *NewtonIterations = nullptr;
  Counter *Failures = nullptr;
  Counter *StiffnessDetections = nullptr;
  Counter *MethodSwitches = nullptr;
  Histogram *WallSeconds = nullptr;
};
} // namespace

ErrorOr<std::unique_ptr<OdeSolver>>
psg::createSolver(const std::string &Name) {
  std::unique_ptr<OdeSolver> Solver;
  if (Name == "rk4")
    Solver = std::make_unique<RungeKutta4Solver>();
  else if (Name == "rkf45")
    Solver = std::make_unique<Rkf45Solver>();
  else if (Name == "dopri5")
    Solver = std::make_unique<Dopri5Solver>();
  else if (Name == "radau5")
    Solver = std::make_unique<Radau5Solver>();
  else if (Name == "adams")
    Solver = std::make_unique<AdamsSolver>();
  else if (Name == "bdf")
    Solver = std::make_unique<BdfSolver>();
  else if (Name == "lsoda")
    Solver = std::make_unique<LsodaSolver>();
  else if (Name == "vode")
    Solver = std::make_unique<VodeSolver>();
  else
    return ErrorOr<std::unique_ptr<OdeSolver>>::failure(
        "unknown solver '" + Name + "'");
  return std::unique_ptr<OdeSolver>(
      std::make_unique<MeteredSolver>(std::move(Solver)));
}

std::vector<std::string> psg::solverNames() {
  return {"rk4",    "rkf45", "dopri5", "radau5",
          "adams",  "bdf",   "lsoda",  "vode"};
}
