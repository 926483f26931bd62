//===- perfbench/src/Replay.cpp -------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "linalg/Eigen.h"
#include "linalg/Lu.h"
#include "ode/Radau5.h"
#include "ode/SolverRegistry.h"
#include "ode/Trajectory.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <complex>
#include <thread>

using namespace perfbench;
using namespace psg;

namespace {
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Cost of the clock-read pair the decorator adds around each call; it is
/// subtracted from the timings.
double clockPairSeconds() {
  constexpr int Reads = 20000;
  const Clock::time_point Start = Clock::now();
  Clock::time_point Last = Start;
  for (int I = 0; I < Reads; ++I)
    Last = std::max(Last, Clock::now());
  return 2.0 * secondsSince(Start) / Reads;
}

/// Decorator over the compiled model that times every rhs() and
/// analyticJacobian() call and keeps a few Jacobians for the LU replay.
class TimedSystem final : public OdeSystem {
public:
  explicit TimedSystem(const CompiledOdeSystem &Inner) : Inner(Inner) {}

  size_t dimension() const override { return Inner.dimension(); }
  bool hasAnalyticJacobian() const override {
    return Inner.hasAnalyticJacobian();
  }
  std::string name() const override { return Inner.name(); }

  void rhs(double T, const double *Y, double *DyDt) const override {
    const Clock::time_point Start = Clock::now();
    Inner.rhs(T, Y, DyDt);
    Rhs.Seconds += secondsSince(Start);
    ++Rhs.Calls;
  }

  void analyticJacobian(double T, const double *Y, Matrix &J) const override {
    // Solvers keep their Newton Jacobian in a matrix they reuse; the
    // stiffness probes form theirs in a fresh, empty one.
    CallTotals &Into = J.empty() ? ProbeJac : Jac;
    const Clock::time_point Start = Clock::now();
    Inner.analyticJacobian(T, Y, J);
    Into.Seconds += secondsSince(Start);
    if (Into.Calls++ % 16 == 0 && Captured.size() < 8)
      Captured.push_back(J);
  }

  const CompiledOdeSystem &Inner;
  mutable CallTotals Rhs, Jac, ProbeJac;
  mutable std::vector<Matrix> Captured;
};

} // namespace

/// One replay thread.
class perfbench::Replayer {
public:
  explicit Replayer(const ReplayInput &In)
      : In(In), Sys(In.Model), Timed(Sys), N(Sys.dimension()), M(N, N),
        C(N, N), B(N) {}

  /// Replays the given parameterizations, then times one sweep of LU and
  /// probe calls: once per slice, so the sweeps sample the same stretch of
  /// machine time without evicting the integrations' caches each time.
  void runSlice(const std::vector<size_t> &Indices) {
    for (size_t I : Indices)
      replayOne(In.Params[I]);
    if (Jacobians.empty())
      pickMatrices();
    sweep();
  }

  /// Totals so far, the decorator's clock reads taken out.
  ReplayResult result() const {
    ReplayResult Out = R;
    for (auto [Into, From] : {std::pair(&Out.Rhs, &Timed.Rhs),
                              std::pair(&Out.Jac, &Timed.Jac),
                              std::pair(&Out.ProbeJac, &Timed.ProbeJac)}) {
      *Into = *From;
      Into->Seconds -= static_cast<double>(From->Calls) * ClockPair / 2;
    }
    return Out;
  }

private:
  OdeSolver &solver(const std::string &Name) {
    std::unique_ptr<OdeSolver> &S = Solvers[Name];
    if (!S) {
      auto SolverOrErr = createSolver(Name);
      if (!SolverOrErr)
        fatalError(SolverOrErr.message());
      S = std::move(*SolverOrErr);
    }
    return *S;
  }

  /// One integration, the way the simulators run it (trajectory recorder
  /// on the output grid when samples are requested).
  IntegrationResult integrate(const std::string &Name, std::vector<double> Y) {
    OdeSolver &Solver = solver(Name);
    const CallTotals Rhs0 = Timed.Rhs, Jac0 = Timed.Jac,
                     Probe0 = Timed.ProbeJac;
    const Clock::time_point Start = Clock::now();
    IntegrationResult Result;
    if (In.OutputSamples > 0) {
      TrajectoryRecorder Recorder(
          uniformGrid(In.StartTime, In.EndTime, In.OutputSamples), N);
      Recorder.recordInitial(In.StartTime, Y.data());
      Result = Solver.integrate(Timed, In.StartTime, In.EndTime, Y,
                                In.Options, &Recorder);
    } else {
      Result = Solver.integrate(Timed, In.StartTime, In.EndTime, Y,
                                In.Options);
    }
    const double Wall = secondsSince(Start);
    const uint64_t JacCalls = Timed.Jac.Calls - Jac0.Calls;
    const uint64_t ProbeCalls = Timed.ProbeJac.Calls - Probe0.Calls;
    const double RhsCalls = static_cast<double>(Timed.Rhs.Calls - Rhs0.Calls);
    const double AllJac = static_cast<double>(JacCalls + ProbeCalls);
    SolverReplay &S = R.Solvers[Name];
    S.Steps += Result.Stats.Steps;
    S.JacCalls += JacCalls;
    S.ProbeCalls += ProbeCalls;
    S.LuFactors += Result.Stats.LuFactorizations;
    S.CluFactors += Result.Stats.ComplexLuFactorizations;
    S.LuSolves += Result.Stats.LuSolves;
    S.IntegrateSeconds += Wall - (RhsCalls + AllJac) * ClockPair;
    S.RhsSeconds +=
        Timed.Rhs.Seconds - Rhs0.Seconds - RhsCalls * ClockPair / 2;
    S.JacSeconds += Timed.Jac.Seconds - Jac0.Seconds +
                    Timed.ProbeJac.Seconds - Probe0.Seconds -
                    AllJac * ClockPair / 2;
    if (Result.Stats.AcceptedSteps > 0) {
      StepSum += (In.EndTime - In.StartTime) /
                 static_cast<double>(Result.Stats.AcceptedSteps);
      ++StepSamples;
    }
    if (Result.Status == IntegrationStatus::StiffnessDetected) {
      ++R.RerouteAttempt.Calls;
      R.RerouteAttempt.Seconds += Wall;
    }
    return Result;
  }

  void replayOne(const Parameterization &P) {
    Sys.setRateConstants(P.RateConstants);
    if (In.Path != "psg-engine") {
      integrate(In.Path, P.InitialState);
      return;
    }
    // P2 routing probe at the initial state.
    const double *Y = P.InitialState.data();
    std::vector<double> F0(N);
    Timed.rhs(In.StartTime, Y, F0.data());
    Matrix J;
    Timed.jacobian(In.StartTime, Y, F0.data(), J);
    bool Implicit = powerIterationSpectralRadius(J) >= In.StiffnessThreshold;
    if (ProbeJacobians.size() < 8)
      ProbeJacobians.push_back(J);
    if (!Implicit)
      Implicit = !integrate("dopri5", P.InitialState).ok();
    if (Implicit)
      integrate("radau5", P.InitialState);
  }

  /// The Jacobians the sweeps use, and RADAU5's real and complex Newton
  /// shifts at the mean accepted step.
  void pickMatrices() {
    Jacobians = Timed.Captured.empty() ? ProbeJacobians : Timed.Captured;
    if (ProbeJacobians.empty())
      ProbeJacobians = Jacobians;
    const double H = StepSamples ? StepSum / static_cast<double>(StepSamples)
                                 : (In.EndTime - In.StartTime) / 100.0;
    Gamma = radau5detail::gammaReal() / H;
    Shift = {radau5detail::alphaComplex() / H,
             radau5detail::betaComplex() / H};
  }

  /// Times LU factor/solve on Newton matrices formed right before they are
  /// factored, as the solvers do, and the power-iteration probe.
  void sweep() {
    for (const Matrix &J : Jacobians) {
      for (size_t I = 0; I < N; ++I)
        for (size_t K = 0; K < N; ++K)
          M(I, K) = (I == K ? Gamma : 0.0) - J(I, K);
      time(R.LuFactor, [&] { RealFactor.factor(M); });
      std::fill(B.begin(), B.end(), 1.0);
      if (RealFactor.valid())
        time(R.LuSolve, [&] { RealFactor.solve(B.data()); });
      for (size_t I = 0; I < N; ++I)
        for (size_t K = 0; K < N; ++K)
          C(I, K) = (I == K ? Shift : std::complex<double>()) - J(I, K);
      time(R.CluFactor, [&] { ComplexFactor.factor(C); });
    }
    for (const Matrix &J : ProbeJacobians)
      time(R.Probe, [&] { LastRadius = powerIterationSpectralRadius(J); });
  }

  template <typename Fn> void time(CallTotals &Into, Fn &&Body) {
    const Clock::time_point Start = Clock::now();
    Body();
    Into.Seconds += secondsSince(Start);
    ++Into.Calls;
  }

  const ReplayInput &In;
  const double ClockPair = clockPairSeconds();
  CompiledOdeSystem Sys;
  TimedSystem Timed;
  size_t N;
  std::map<std::string, std::unique_ptr<OdeSolver>> Solvers;
  ReplayResult R;
  double StepSum = 0.0;
  uint64_t StepSamples = 0;
  std::vector<Matrix> Jacobians, ProbeJacobians;
  double Gamma = 0.0;
  std::complex<double> Shift;
  Matrix M;
  ComplexMatrix C;
  std::vector<double> B;
  RealLu RealFactor;
  ComplexLu ComplexFactor;
  double LastRadius = 0.0;
};

void ReplayResult::merge(const ReplayResult &O) {
  Rhs.add(O.Rhs);
  Jac.add(O.Jac);
  ProbeJac.add(O.ProbeJac);
  LuFactor.add(O.LuFactor);
  CluFactor.add(O.CluFactor);
  LuSolve.add(O.LuSolve);
  Probe.add(O.Probe);
  RerouteAttempt.add(O.RerouteAttempt);
  for (const auto &[Name, S] : O.Solvers) {
    SolverReplay &Into = Solvers[Name];
    Into.Steps += S.Steps;
    Into.JacCalls += S.JacCalls;
    Into.ProbeCalls += S.ProbeCalls;
    Into.LuFactors += S.LuFactors;
    Into.CluFactors += S.CluFactors;
    Into.LuSolves += S.LuSolves;
    Into.IntegrateSeconds += S.IntegrateSeconds;
    Into.RhsSeconds += S.RhsSeconds;
    Into.JacSeconds += S.JacSeconds;
  }
}

double ReplayResult::luSeconds(double Factors, double Clus,
                               double Solves) const {
  return Factors * LuFactor.perCall() + Clus * CluFactor.perCall() +
         Solves * LuSolve.perCall();
}

double ReplayResult::probeShare(const std::string &Solver) const {
  auto It = Solvers.find(Solver);
  if (It == Solvers.end())
    return 0.0;
  const double Probes = static_cast<double>(It->second.ProbeCalls);
  const double All = Probes + static_cast<double>(It->second.JacCalls);
  return All > 0 ? Probes / All : 0.0;
}

double ReplayResult::selfSecondsPerStep(const std::string &Solver) const {
  auto It = Solvers.find(Solver);
  if (It == Solvers.end() || It->second.Steps == 0)
    return 0.0;
  const SolverReplay &S = It->second;
  const double Lu = luSeconds(static_cast<double>(S.LuFactors),
                              static_cast<double>(S.CluFactors),
                              static_cast<double>(S.LuSolves));
  const double PowerIterations =
      static_cast<double>(S.ProbeCalls) * Probe.perCall();
  return (S.IntegrateSeconds - S.RhsSeconds - S.JacSeconds - Lu -
          PowerIterations) /
         static_cast<double>(S.Steps);
}

LayerReplay::LayerReplay(ReplayInput Input) : In(std::move(Input)) {
  for (unsigned T = 0; T < std::max(1u, In.Threads); ++T)
    Replayers.push_back(std::make_unique<Replayer>(In));
}

LayerReplay::~LayerReplay() = default;

void LayerReplay::runSlice(size_t PerThread) {
  if (In.Params.empty())
    return;
  std::vector<std::vector<size_t>> Work(Replayers.size());
  for (std::vector<size_t> &Indices : Work)
    for (size_t I = 0; I < PerThread; ++I)
      Indices.push_back(Next++ % In.Params.size());
  std::vector<std::jthread> Pool;
  for (size_t T = 1; T < Replayers.size(); ++T)
    Pool.emplace_back([&, T] { Replayers[T]->runSlice(Work[T]); });
  Replayers[0]->runSlice(Work[0]);
}

ReplayResult LayerReplay::result() const {
  ReplayResult R;
  for (const std::unique_ptr<Replayer> &P : Replayers)
    R.merge(P->result());
  return R;
}
