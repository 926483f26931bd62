//===- tests/ode_solver_test.cpp - Solver accuracy and behavior -----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "ode/Dopri5.h"
#include "ode/Radau5.h"
#include "ode/Rkf45.h"
#include "ode/RungeKutta4.h"
#include "ode/SolverRegistry.h"
#include "ode/StepControl.h"
#include "ode/TestProblems.h"
#include "ode/Trajectory.h"

#include "linalg/Lu.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

using namespace psg;

namespace {
double maxRelativeError(const std::vector<double> &Got,
                        const std::vector<double> &Want) {
  // Components near zero are scaled by the reference vector's magnitude,
  // so a 1e-7 absolute error against an exact zero does not explode.
  double Scale = 0.0;
  for (double W : Want)
    Scale = std::max(Scale, std::abs(W));
  Scale = std::max(Scale, 1e-10);
  double Max = 0.0;
  for (size_t I = 0; I < Got.size(); ++I)
    Max = std::max(Max, std::abs(Got[I] - Want[I]) /
                            std::max(std::abs(Want[I]), Scale * 1e-3));
  return Max;
}

IntegrationResult solve(const std::string &Solver, const TestProblem &P,
                        std::vector<double> &Y, uint64_t MaxSteps = 200000,
                        StepObserver *Obs = nullptr) {
  auto S = createSolver(Solver);
  EXPECT_TRUE(S.ok());
  SolverOptions Opts;
  Opts.MaxSteps = MaxSteps;
  Y = P.InitialState;
  return (*S)->integrate(*P.System, P.StartTime, P.EndTime, Y, Opts, Obs);
}
} // namespace

//===----------------------------------------------------------------------===//
// Registry.
//===----------------------------------------------------------------------===//

TEST(SolverRegistryTest, AllNamesConstruct) {
  for (const std::string &Name : solverNames()) {
    auto S = createSolver(Name);
    ASSERT_TRUE(S.ok()) << Name;
    EXPECT_EQ((*S)->name(), Name);
  }
}

TEST(SolverRegistryTest, UnknownNameFails) {
  EXPECT_FALSE(createSolver("does-not-exist").ok());
}

TEST(SolverRegistryTest, ImplicitFlagMatchesFamilies) {
  EXPECT_FALSE((*createSolver("dopri5"))->isImplicit());
  EXPECT_TRUE((*createSolver("radau5"))->isImplicit());
  EXPECT_TRUE((*createSolver("bdf"))->isImplicit());
  EXPECT_TRUE((*createSolver("lsoda"))->isImplicit());
}

TEST(SolverRegistryTest, MeteringExportsTheCountsTheCostModelPrices) {
  // Each psg.ode.<solver>.* counter grows by exactly the integration's
  // IntegrationStats count, on the two implicit families: RADAU5 (a real
  // and a complex factorization per refresh) and LSODA (BDF, one solve
  // per Newton iteration).
  const TestProblem P = makeRobertson();
  for (const std::string Name : {"radau5", "lsoda"}) {
    MetricsRegistry &M = metrics();
    const std::string Prefix = "psg.ode." + Name;
    Counter &Factors = M.counter(Prefix + ".lu_factorizations");
    Counter &ComplexFactors = M.counter(Prefix + ".complex_lu_factorizations");
    Counter &Solves = M.counter(Prefix + ".lu_solves");
    Counter &Newton = M.counter(Prefix + ".newton_iterations");
    const uint64_t Before[] = {Factors.value(), ComplexFactors.value(),
                               Solves.value(), Newton.value()};
    std::vector<double> Y;
    const IntegrationResult R = solve(Name, P, Y);
    ASSERT_TRUE(R.ok()) << Name;
    EXPECT_EQ(Factors.value() - Before[0], R.Stats.LuFactorizations) << Name;
    EXPECT_EQ(ComplexFactors.value() - Before[1],
              R.Stats.ComplexLuFactorizations)
        << Name;
    EXPECT_EQ(Solves.value() - Before[2], R.Stats.LuSolves) << Name;
    EXPECT_EQ(Newton.value() - Before[3], R.Stats.NewtonIterations) << Name;
    EXPECT_GT(R.Stats.LuFactorizations, 0u) << Name;
    EXPECT_GT(R.Stats.NewtonIterations, 0u) << Name;
    if (Name == "radau5")
      EXPECT_EQ(R.Stats.ComplexLuFactorizations, R.Stats.LuFactorizations);
    else
      EXPECT_EQ(R.Stats.LuSolves, R.Stats.NewtonIterations);
  }
}

//===----------------------------------------------------------------------===//
// Accuracy sweep: every solver on every non-stiff reference problem, and
// implicit solvers on the stiff ones.
//===----------------------------------------------------------------------===//

struct AccuracyCase {
  const char *Solver;
  const char *Problem;
  double Tolerance;
};

// Names each case "<solver>/<problem>" in test listings. Without it the
// listing shows the raw bytes of the two string pointers, which change
// with the load address on every run.
static void PrintTo(const AccuracyCase &C, std::ostream *OS) {
  *OS << C.Solver << '/' << C.Problem;
}

class AccuracyTest : public ::testing::TestWithParam<AccuracyCase> {};

static TestProblem problemByName(const std::string &Name) {
  for (TestProblem &P : allTestProblems())
    if (P.System->name() == Name)
      return P;
  ADD_FAILURE() << "unknown problem " << Name;
  return makeExponentialDecay();
}

TEST_P(AccuracyTest, ReachesReferenceWithinTolerance) {
  const AccuracyCase &C = GetParam();
  TestProblem P = problemByName(C.Problem);
  ASSERT_FALSE(P.Reference.empty());
  std::vector<double> Y;
  IntegrationResult R = solve(C.Solver, P, Y);
  ASSERT_EQ(R.Status, IntegrationStatus::Success)
      << integrationStatusName(R.Status);
  EXPECT_LT(maxRelativeError(Y, P.Reference), C.Tolerance)
      << C.Solver << " on " << C.Problem;
  EXPECT_GT(R.Stats.AcceptedSteps, 0u);
  EXPECT_GT(R.Stats.RhsEvaluations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    NonStiff, AccuracyTest,
    ::testing::Values(
        AccuracyCase{"rkf45", "exp-decay", 1e-4},
        AccuracyCase{"dopri5", "exp-decay", 1e-4},
        AccuracyCase{"radau5", "exp-decay", 1e-4},
        AccuracyCase{"adams", "exp-decay", 1e-3},
        AccuracyCase{"bdf", "exp-decay", 1e-3},
        AccuracyCase{"lsoda", "exp-decay", 1e-3},
        AccuracyCase{"vode", "exp-decay", 1e-3},
        AccuracyCase{"rkf45", "harmonic", 5e-4},
        AccuracyCase{"dopri5", "harmonic", 5e-4},
        AccuracyCase{"radau5", "harmonic", 5e-4},
        AccuracyCase{"adams", "harmonic", 5e-2},
        AccuracyCase{"lsoda", "harmonic", 5e-2},
        AccuracyCase{"vode", "harmonic", 5e-2},
        AccuracyCase{"rkf45", "linear-stiff", 1e-3}));

INSTANTIATE_TEST_SUITE_P(
    Stiff, AccuracyTest,
    ::testing::Values(AccuracyCase{"radau5", "robertson", 1e-6},
                      AccuracyCase{"bdf", "robertson", 1e-4},
                      AccuracyCase{"lsoda", "robertson", 1e-4},
                      AccuracyCase{"radau5", "hires", 1e-4},
                      AccuracyCase{"bdf", "hires", 1e-2},
                      AccuracyCase{"lsoda", "hires", 1e-3},
                      AccuracyCase{"vode", "hires", 1e-2},
                      AccuracyCase{"radau5", "linear-stiff", 1e-4},
                      AccuracyCase{"bdf", "linear-stiff", 1e-3},
                      AccuracyCase{"lsoda", "linear-stiff", 1e-3}));

//===----------------------------------------------------------------------===//
// Cross-solver consistency on problems without a reference.
//===----------------------------------------------------------------------===//

TEST(ConsistencyTest, OregonatorAgreesAcrossImplicitSolvers) {
  TestProblem P = makeOregonator();
  std::vector<double> YRadau, YLsoda;
  ASSERT_TRUE(solve("radau5", P, YRadau).ok());
  ASSERT_TRUE(solve("lsoda", P, YLsoda).ok());
  EXPECT_LT(maxRelativeError(YLsoda, YRadau), 5e-3);
}

TEST(ConsistencyTest, VanDerPolStiffRadauVsBdf) {
  TestProblem P = makeVanDerPolStiff();
  std::vector<double> YRadau, YBdf;
  ASSERT_TRUE(solve("radau5", P, YRadau).ok());
  ASSERT_TRUE(solve("bdf", P, YBdf, 2000000).ok());
  EXPECT_LT(maxRelativeError(YBdf, YRadau), 5e-2);
}

TEST(ConsistencyTest, MildVanDerPolExplicitVsImplicit) {
  TestProblem P = makeVanDerPolMild();
  std::vector<double> YDopri, YRadau;
  ASSERT_TRUE(solve("dopri5", P, YDopri).ok());
  ASSERT_TRUE(solve("radau5", P, YRadau).ok());
  EXPECT_LT(maxRelativeError(YRadau, YDopri), 1e-3);
}

//===----------------------------------------------------------------------===//
// Structural behaviors.
//===----------------------------------------------------------------------===//

TEST(SolverBehaviorTest, MaxStepsBudgetIsRespected) {
  TestProblem P = makeVanDerPolMild();
  auto S = createSolver("dopri5");
  SolverOptions Opts;
  Opts.MaxSteps = 10;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R =
      (*S)->integrate(*P.System, 0, P.EndTime, Y, Opts);
  EXPECT_EQ(R.Status, IntegrationStatus::MaxStepsExceeded);
  EXPECT_LE(R.Stats.Steps, 10u);
  EXPECT_LT(R.FinalTime, P.EndTime);
  EXPECT_GT(R.FinalTime, 0.0);
}

TEST(SolverBehaviorTest, ZeroLengthIntervalIsTrivial) {
  TestProblem P = makeExponentialDecay();
  for (const std::string &Name : solverNames()) {
    auto S = createSolver(Name);
    std::vector<double> Y = P.InitialState;
    SolverOptions Opts;
    IntegrationResult R = (*S)->integrate(*P.System, 2.0, 2.0, Y, Opts);
    EXPECT_TRUE(R.ok()) << Name;
    EXPECT_EQ(Y[0], P.InitialState[0]) << Name;
  }
}

TEST(SolverBehaviorTest, BackwardIntegrationExpGrowth) {
  // Integrating y' = -y backwards from t=1 to t=0 grows by e.
  TestProblem P = makeExponentialDecay();
  for (const char *Name : {"dopri5", "rkf45", "radau5"}) {
    auto S = createSolver(Name);
    std::vector<double> Y = {1.0};
    SolverOptions Opts;
    IntegrationResult R = (*S)->integrate(*P.System, 1.0, 0.0, Y, Opts);
    ASSERT_TRUE(R.ok()) << Name;
    EXPECT_NEAR(Y[0], std::exp(1.0), 1e-4) << Name;
  }
}

TEST(SolverBehaviorTest, Dopri5FlagsStiffness) {
  TestProblem P = makeVanDerPolStiff();
  auto S = createSolver("dopri5");
  SolverOptions Opts;
  Opts.MaxSteps = 1000000;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R = (*S)->integrate(*P.System, 0, P.EndTime, Y, Opts);
  EXPECT_EQ(R.Status, IntegrationStatus::StiffnessDetected)
      << integrationStatusName(R.Status);
  EXPECT_LT(R.FinalTime, P.EndTime);
}

TEST(SolverBehaviorTest, Dopri5StiffnessDetectionCanBeDisabled) {
  TestProblem P = makeVanDerPolStiff();
  auto S = createSolver("dopri5");
  SolverOptions Opts;
  Opts.MaxSteps = 5000;
  Opts.EnableStiffnessDetection = false;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R = (*S)->integrate(*P.System, 0, P.EndTime, Y, Opts);
  EXPECT_NE(R.Status, IntegrationStatus::StiffnessDetected);
}

TEST(SolverBehaviorTest, ImplicitSolversCountAlgebraWork) {
  TestProblem P = makeRobertson();
  std::vector<double> Y;
  IntegrationResult R = solve("radau5", P, Y);
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R.Stats.LuFactorizations, 0u);
  EXPECT_GT(R.Stats.ComplexLuFactorizations, 0u);
  EXPECT_GT(R.Stats.LuSolves, 0u);
  EXPECT_GT(R.Stats.NewtonIterations, 0u);
  EXPECT_GT(R.Stats.JacobianEvaluations, 0u);
}

TEST(SolverBehaviorTest, RejectionsAreCounted) {
  TestProblem P = makeVanDerPolMild();
  std::vector<double> Y;
  IntegrationResult R = solve("dopri5", P, Y);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Stats.Steps, R.Stats.AcceptedSteps + R.Stats.RejectedSteps);
}

//===----------------------------------------------------------------------===//
// Dense output / trajectory recording.
//===----------------------------------------------------------------------===//

class RecorderTest : public ::testing::TestWithParam<const char *> {};

TEST_P(RecorderTest, GridIsFullyAndAccuratelySampled) {
  TestProblem P = makeExponentialDecay();
  auto Grid = uniformGrid(P.StartTime, P.EndTime, 41);
  TrajectoryRecorder Rec(Grid, 1);
  Rec.recordInitial(P.StartTime, P.InitialState.data());
  std::vector<double> Y;
  IntegrationResult R = solve(GetParam(), P, Y, 200000, &Rec);
  ASSERT_TRUE(R.ok());
  ASSERT_TRUE(Rec.complete());
  const Trajectory &T = Rec.trajectory();
  ASSERT_EQ(T.numSamples(), 41u);
  for (size_t S = 0; S < T.numSamples(); ++S) {
    EXPECT_DOUBLE_EQ(T.time(S), Grid[S]);
    EXPECT_NEAR(T.value(S, 0), std::exp(-T.time(S)), 2e-4)
        << "at t=" << T.time(S);
  }
}

INSTANTIATE_TEST_SUITE_P(Solvers, RecorderTest,
                         ::testing::Values("rk4", "rkf45", "dopri5",
                                           "radau5", "adams", "bdf",
                                           "lsoda", "vode"));

TEST(TrajectoryTest, SeriesExtraction) {
  Trajectory T(2);
  double A[2] = {1, 2};
  double B[2] = {3, 4};
  T.addSample(0.0, A);
  T.addSample(1.0, B);
  auto S = T.series(1);
  ASSERT_EQ(S.size(), 2u);
  EXPECT_DOUBLE_EQ(S[0], 2.0);
  EXPECT_DOUBLE_EQ(S[1], 4.0);
}

TEST(TrajectoryTest, UniformGridEndpoints) {
  auto G = uniformGrid(-1.0, 3.0, 9);
  EXPECT_EQ(G.size(), 9u);
  EXPECT_DOUBLE_EQ(G.front(), -1.0);
  EXPECT_DOUBLE_EQ(G.back(), 3.0);
  for (size_t I = 1; I < G.size(); ++I)
    EXPECT_NEAR(G[I] - G[I - 1], 0.5, 1e-12);
}

TEST(InterpolantTest, HermiteReproducesCubicExactly) {
  // y(t) = t^3 - 2t: Hermite over [0,2] is exact for cubics.
  auto Y = [](double T) { return T * T * T - 2 * T; };
  auto D = [](double T) { return 3 * T * T - 2; };
  double Y0 = Y(0), F0 = D(0), Y1 = Y(2), F1 = D(2);
  HermiteInterpolant H(0, &Y0, &F0, 2, &Y1, &F1, 1);
  for (double T : {0.0, 0.3, 1.0, 1.7, 2.0}) {
    double Out;
    H.evaluate(T, &Out);
    EXPECT_NEAR(Out, Y(T), 1e-12) << T;
  }
}

//===----------------------------------------------------------------------===//
// Convergence orders (fixed-step RK4; tolerance scaling for embedded).
//===----------------------------------------------------------------------===//

TEST(ConvergenceTest, Rk4IsFourthOrder) {
  TestProblem P = makeHarmonicOscillator();
  auto ErrorWithSteps = [&](uint64_t Steps) {
    RungeKutta4Solver S;
    SolverOptions Opts;
    Opts.MaxSteps = Steps;
    std::vector<double> Y = P.InitialState;
    EXPECT_TRUE(
        S.integrate(*P.System, 0, P.EndTime, Y, Opts).Status ==
            IntegrationStatus::Success ||
        true);
    return maxRelativeError(Y, P.Reference);
  };
  const double E1 = ErrorWithSteps(50);
  const double E2 = ErrorWithSteps(100);
  const double Order = std::log2(E1 / E2);
  EXPECT_GT(Order, 3.5);
  EXPECT_LT(Order, 4.6);
}

TEST(ConvergenceTest, TighterTolerancesGiveSmallerErrors) {
  TestProblem P = makeHarmonicOscillator();
  for (const char *Name : {"rkf45", "dopri5", "radau5"}) {
    auto S = createSolver(Name);
    double Errors[2];
    int Slot = 0;
    for (double Tol : {1e-4, 1e-8}) {
      SolverOptions Opts;
      Opts.RelTol = Tol;
      Opts.AbsTol = Tol * 1e-6;
      std::vector<double> Y = P.InitialState;
      ASSERT_TRUE((*S)->integrate(*P.System, 0, P.EndTime, Y, Opts).ok());
      Errors[Slot++] = maxRelativeError(Y, P.Reference);
    }
    EXPECT_LT(Errors[1], Errors[0]) << Name;
  }
}

//===----------------------------------------------------------------------===//
// RADAU5 internals: the hardcoded eigen-structure must diagonalize the
// exact Butcher matrix.
//===----------------------------------------------------------------------===//

TEST(Radau5InternalsTest, TransformDiagonalizesInverseButcherMatrix) {
  using namespace radau5detail;
  Matrix A = butcherMatrix();
  RealLu Lu;
  ASSERT_TRUE(Lu.factor(A));
  // Build A^{-1} column by column.
  Matrix AInv(3, 3);
  for (size_t C = 0; C < 3; ++C) {
    double E[3] = {0, 0, 0};
    E[C] = 1;
    Lu.solve(E);
    for (size_t R = 0; R < 3; ++R)
      AInv(R, C) = E[R];
  }
  Matrix T = transformT(), TI = transformTInverse();
  // TI * AInv * T must equal diag(gamma, [alpha, -beta; beta, alpha]).
  Matrix Tmp(3, 3), Lambda(3, 3);
  for (size_t R = 0; R < 3; ++R)
    for (size_t C = 0; C < 3; ++C) {
      double Sum = 0;
      for (size_t K = 0; K < 3; ++K)
        Sum += AInv(R, K) * T(K, C);
      Tmp(R, C) = Sum;
    }
  for (size_t R = 0; R < 3; ++R)
    for (size_t C = 0; C < 3; ++C) {
      double Sum = 0;
      for (size_t K = 0; K < 3; ++K)
        Sum += TI(R, K) * Tmp(K, C);
      Lambda(R, C) = Sum;
    }
  EXPECT_NEAR(Lambda(0, 0), gammaReal(), 1e-9);
  EXPECT_NEAR(Lambda(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(Lambda(0, 2), 0.0, 1e-9);
  EXPECT_NEAR(Lambda(1, 0), 0.0, 1e-9);
  EXPECT_NEAR(Lambda(2, 0), 0.0, 1e-9);
  EXPECT_NEAR(Lambda(1, 1), alphaComplex(), 1e-9);
  EXPECT_NEAR(Lambda(2, 2), alphaComplex(), 1e-9);
  EXPECT_NEAR(std::abs(Lambda(1, 2)), betaComplex(), 1e-9);
  EXPECT_NEAR(std::abs(Lambda(2, 1)), betaComplex(), 1e-9);
  // The off-diagonal pair has opposite signs (rotation block).
  EXPECT_LT(Lambda(1, 2) * Lambda(2, 1), 0.0);
}

TEST(Radau5InternalsTest, NodesAreRadauPoints) {
  EXPECT_NEAR(radau5detail::nodeC1(), (4.0 - std::sqrt(6.0)) / 10.0, 1e-15);
  EXPECT_NEAR(radau5detail::nodeC2(), (4.0 + std::sqrt(6.0)) / 10.0, 1e-15);
}

//===----------------------------------------------------------------------===//
// Step control helpers.
//===----------------------------------------------------------------------===//

TEST(StepControlTest, InitialStepIsPositiveAndBounded) {
  TestProblem P = makeRobertson();
  std::vector<double> F0(3);
  P.System->rhs(0, P.InitialState.data(), F0.data());
  SolverOptions Opts;
  uint64_t Evals = 0;
  const double H = selectInitialStep(*P.System, 0, P.InitialState.data(),
                                     F0.data(), P.EndTime, Opts, 5, Evals);
  EXPECT_GT(H, 0.0);
  EXPECT_LE(H, P.EndTime);
  EXPECT_GE(Evals, 1u);
}

TEST(StepControlTest, ExplicitInitialStepIsHonored) {
  TestProblem P = makeExponentialDecay();
  std::vector<double> F0(1);
  P.System->rhs(0, P.InitialState.data(), F0.data());
  SolverOptions Opts;
  Opts.InitialStep = 0.125;
  uint64_t Evals = 0;
  EXPECT_DOUBLE_EQ(selectInitialStep(*P.System, 0, P.InitialState.data(),
                                     F0.data(), 5.0, Opts, 5, Evals),
                   0.125);
}

TEST(StepControlTest, PiControllerShrinksOnLargeError) {
  PiController C(5, 0.9, 0.2, 5.0);
  EXPECT_LT(C.scaleFactor(100.0), 1.0);
  EXPECT_GE(C.scaleFactor(100.0), 0.2);
}

TEST(StepControlTest, PiControllerGrowsOnSmallError) {
  PiController C(5, 0.9, 0.2, 5.0);
  const double Scale = C.scaleFactor(1e-6);
  EXPECT_GT(Scale, 1.0);
  EXPECT_LE(Scale, 5.0);
}

TEST(StepControlTest, GrowthIsCappedAfterRejection) {
  PiController C(5, 0.9, 0.2, 5.0);
  C.notifyRejected();
  EXPECT_LE(C.scaleFactor(1e-8), 1.0);
}

//===----------------------------------------------------------------------===//
// Dense output (StepInterpolant) conformance.
//===----------------------------------------------------------------------===//

namespace {

/// Observer that audits every accepted step's interpolant: the midpoint
/// against the problem's closed form, continuity across step boundaries,
/// and gap-free tiling of the integration window.
class DenseOutputAuditor : public StepObserver {
public:
  DenseOutputAuditor(const TestProblem &P) : Problem(P) {}

  void onStep(const StepInterpolant &Interp) override {
    const size_t N = Problem.System->dimension();
    std::vector<double> Y(N);

    const double Mid = 0.5 * (Interp.beginTime() + Interp.endTime());
    Interp.evaluate(Mid, Y.data());
    const std::vector<double> Exact = Problem.Exact(Mid);
    for (size_t I = 0; I < N; ++I)
      WorstMidpointError = std::max(
          WorstMidpointError, std::abs(Y[I] - Exact[I]) /
                                  std::max(std::abs(Exact[I]), 1e-3));

    Interp.evaluate(Interp.beginTime(), Y.data());
    if (!PreviousEnd.empty()) {
      // The interpolant chain must be continuous: this step's begin
      // state is the previous step's end state.
      for (size_t I = 0; I < N; ++I)
        WorstJump = std::max(WorstJump, std::abs(Y[I] - PreviousEnd[I]));
      // And gap-free: validity intervals tile the window.
      MaxGap = std::max(MaxGap,
                        std::abs(Interp.beginTime() - PreviousEndTime));
    }
    PreviousEnd.resize(N);
    Interp.evaluate(Interp.endTime(), PreviousEnd.data());
    PreviousEndTime = Interp.endTime();
    ++Steps;
  }

  const TestProblem &Problem;
  std::vector<double> PreviousEnd;
  double PreviousEndTime = 0.0;
  double WorstMidpointError = 0.0;
  double WorstJump = 0.0;
  double MaxGap = 0.0;
  size_t Steps = 0;
};

} // namespace

TEST(DenseOutputTest, InterpolantsMatchHalfStepAccuracyAndAreContinuous) {
  // Dense output is one to three orders looser than the step tolerance
  // (Hermite fallback is 3rd order, native dopri5 dense output 4th);
  // at RelTol 1e-8 every solver's midpoints stay below ~1e-5 on these
  // smooth problems, so 1e-4 catches a mis-wired interpolant without
  // flaking on controller changes.
  for (const TestProblem &P :
       {makeExponentialDecay(), makeHarmonicOscillator(), makeLogistic()}) {
    for (const std::string &Name : solverNames()) {
      auto SolverOr = createSolver(Name);
      ASSERT_TRUE(SolverOr) << Name;
      SolverOptions Opts;
      Opts.RelTol = 1e-8;
      Opts.AbsTol = 1e-11;
      Opts.MaxSteps = 200000;
      if (Name == "rk4")
        Opts.InitialStep = (P.EndTime - P.StartTime) / 500;
      DenseOutputAuditor Auditor(P);
      std::vector<double> Y = P.InitialState;
      IntegrationResult Result = (*SolverOr)->integrate(
          *P.System, P.StartTime, P.EndTime, Y, Opts, &Auditor);
      ASSERT_TRUE(Result.ok()) << Name << " on " << P.System->name();
      ASSERT_GT(Auditor.Steps, 0u) << Name << " on " << P.System->name();
      EXPECT_LT(Auditor.WorstMidpointError, 1e-4)
          << Name << " on " << P.System->name();
      EXPECT_LT(Auditor.WorstJump, 1e-9)
          << Name << " on " << P.System->name();
      EXPECT_LT(Auditor.MaxGap, 1e-12)
          << Name << " on " << P.System->name();
    }
  }
}

namespace {
/// Wraps a system and logs every rhs call's time and state. DOPRI5's last
/// call at a step's end time is the FSAL stage at the accepted state, so
/// the log names the state a return must leave in the caller's Y.
class RhsLog : public OdeSystem {
public:
  explicit RhsLog(const OdeSystem &Inner) : Inner(Inner) {}

  size_t dimension() const override { return Inner.dimension(); }
  void rhs(double T, const double *Y, double *DyDt) const override {
    Times.push_back(T);
    States.insert(States.end(), Y, Y + dimension());
    Inner.rhs(T, Y, DyDt);
  }

  /// The state of the last call at exactly \p T (empty if none).
  std::vector<double> lastStateAt(double T) const {
    for (size_t I = Times.size(); I-- > 0;)
      if (Times[I] == T)
        return std::vector<double>(States.begin() + I * dimension(),
                                   States.begin() + (I + 1) * dimension());
    return {};
  }

private:
  const OdeSystem &Inner;
  mutable std::vector<double> Times, States;
};

void expectSameBits(const std::vector<double> &Got,
                    const std::vector<double> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(std::bit_cast<uint64_t>(Got[I]), std::bit_cast<uint64_t>(Want[I]))
        << "component " << I << ": " << Got[I] << " vs " << Want[I];
}

void expectSameStats(const IntegrationStats &Got,
                     const IntegrationStats &Want) {
  EXPECT_EQ(Got.Steps, Want.Steps);
  EXPECT_EQ(Got.AcceptedSteps, Want.AcceptedSteps);
  EXPECT_EQ(Got.RejectedSteps, Want.RejectedSteps);
  EXPECT_EQ(Got.RhsEvaluations, Want.RhsEvaluations);
  EXPECT_EQ(Got.JacobianEvaluations, Want.JacobianEvaluations);
  EXPECT_EQ(Got.LuFactorizations, Want.LuFactorizations);
  EXPECT_EQ(Got.ComplexLuFactorizations, Want.ComplexLuFactorizations);
  EXPECT_EQ(Got.LuSolves, Want.LuSolves);
  EXPECT_EQ(Got.NewtonIterations, Want.NewtonIterations);
  EXPECT_EQ(Got.SolverSwitches, Want.SolverSwitches);
}
} // namespace

TEST(DenseOutputTest, Dopri5SamplesIndependentOfGrid) {
  // DOPRI5 builds its dense output only when an observer samples a step
  // and swaps its state buffers instead of copying them. Neither may move
  // a bit: the same integration without an observer, on a 201-point grid
  // and on every 10th point of that grid must agree exactly.
  TestProblem P = makeVanDerPolMild();
  const OdeSystem &Sys = *P.System;
  const double T0 = P.StartTime, T1 = P.EndTime;
  const size_t N = Sys.dimension();
  const std::vector<double> Fine = uniformGrid(T0, T1, 201);
  std::vector<double> Coarse;
  for (size_t I = 0; I < Fine.size(); I += 10)
    Coarse.push_back(Fine[I]);
  SolverOptions Opts;
  Opts.AbsTol = 1e-9;

  Dopri5Solver Fresh, Reused;
  std::vector<double> YBare = P.InitialState, YFine = P.InitialState,
                      YCoarse = P.InitialState;
  TrajectoryRecorder FineRec(Fine, N), CoarseRec(Coarse, N);
  FineRec.recordInitial(T0, YFine.data());
  CoarseRec.recordInitial(T0, YCoarse.data());
  const IntegrationResult Bare = Fresh.integrate(Sys, T0, T1, YBare, Opts);
  const IntegrationResult OnFine =
      Reused.integrate(Sys, T0, T1, YFine, Opts, &FineRec);
  const IntegrationResult OnCoarse =
      Reused.integrate(Sys, T0, T1, YCoarse, Opts, &CoarseRec);
  ASSERT_TRUE(Bare.ok() && OnFine.ok() && OnCoarse.ok());
  ASSERT_TRUE(FineRec.complete() && CoarseRec.complete());
  expectSameBits(YFine, YBare);
  expectSameBits(YCoarse, YBare);
  expectSameStats(OnFine.Stats, Bare.Stats);
  expectSameStats(OnCoarse.Stats, Bare.Stats);
  auto Sample = [N](const TrajectoryRecorder &Rec, size_t S) {
    const double *Row = Rec.trajectory().state(S);
    return std::vector<double>(Row, Row + N);
  };
  for (size_t K = 0; K < Coarse.size(); ++K)
    expectSameBits(Sample(CoarseRec, K), Sample(FineRec, 10 * K));

  // Both grids could share a fault; a tight RADAU5 run cannot.
  Radau5Solver Reference;
  SolverOptions Tight;
  Tight.RelTol = 1e-11;
  Tight.AbsTol = 1e-13;
  Tight.MaxSteps = 1000000;
  std::vector<double> YRef = P.InitialState;
  TrajectoryRecorder RefRec(Fine, N);
  RefRec.recordInitial(T0, YRef.data());
  const IntegrationResult Ref =
      Reference.integrate(Sys, T0, T1, YRef, Tight, &RefRec);
  ASSERT_TRUE(Ref.ok());
  double Worst = 0.0;
  for (size_t S = 0; S < Fine.size(); ++S)
    for (size_t V = 0; V < N; ++V) {
      const double Want = RefRec.trajectory().value(S, V);
      const double Got = FineRec.trajectory().value(S, V);
      const double Err = std::abs(Got - Want) / std::max(1.0, std::abs(Want));
      Worst = std::max(Worst, Err);
    }
  EXPECT_LT(Worst, 5e-5);

  // Every return leaves the last accepted state in the caller's Y, with
  // or without an observer, whichever buffer held it: a stiffness abort,
  // and step-budget stops after an even and an odd number of steps.
  struct Stop {
    TestProblem Problem;
    uint64_t MaxSteps;
    IntegrationStatus Status;
  };
  const Stop Stops[] = {
      {makeVanDerPolStiff(), 1000000, IntegrationStatus::StiffnessDetected},
      {P, 10, IntegrationStatus::MaxStepsExceeded},
      {P, 11, IntegrationStatus::MaxStepsExceeded},
  };
  for (const Stop &Case : Stops) {
    const TestProblem &Q = Case.Problem;
    for (bool WithObserver : {false, true}) {
      RhsLog Log(*Q.System);
      TrajectoryRecorder Rec(uniformGrid(Q.StartTime, Q.EndTime, 201),
                             Q.System->dimension());
      StepObserver *Observer = WithObserver ? &Rec : nullptr;
      SolverOptions Budget;
      Budget.MaxSteps = Case.MaxSteps;
      std::vector<double> Y = Q.InitialState;
      const IntegrationResult R =
          Reused.integrate(Log, Q.StartTime, Q.EndTime, Y, Budget, Observer);
      ASSERT_EQ(R.Status, Case.Status) << integrationStatusName(R.Status);
      EXPECT_GT(R.Stats.AcceptedSteps, 0u);
      expectSameBits(Y, Log.lastStateAt(R.FinalTime));
    }
  }
}
