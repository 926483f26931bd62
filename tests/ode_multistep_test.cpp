//===- tests/ode_multistep_test.cpp - Adams/BDF/LSODA behavior ------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "ode/Lsoda.h"
#include "ode/Multistep.h"
#include "ode/Radau5.h"
#include "ode/TestProblems.h"
#include "ode/Vode.h"
#include "rbm/CuratedModels.h"
#include "rbm/MassAction.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

using namespace psg;

TEST(MultistepDriverTest, BeginInitializesState) {
  TestProblem P = makeExponentialDecay();
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Adams);
  D.begin(0.0, P.InitialState.data(), 5.0);
  EXPECT_DOUBLE_EQ(D.time(), 0.0);
  EXPECT_EQ(D.currentOrder(), 1u);
  EXPECT_FALSE(D.done());
  EXPECT_GT(D.currentStep(), 0.0);
}

TEST(MultistepDriverTest, AdvanceMakesForwardProgress) {
  TestProblem P = makeExponentialDecay();
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Adams);
  D.begin(0.0, P.InitialState.data(), 5.0);
  double Last = 0.0;
  for (int I = 0; I < 20 && !D.done(); ++I) {
    ASSERT_EQ(D.advance(), IntegrationStatus::Success);
    EXPECT_GT(D.time(), Last);
    Last = D.time();
  }
}

TEST(MultistepDriverTest, OrderClimbsOnSmoothProblems) {
  TestProblem P = makeExponentialDecay();
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Adams);
  D.begin(0.0, P.InitialState.data(), 5.0);
  unsigned MaxOrder = 1;
  while (!D.done()) {
    ASSERT_EQ(D.advance(), IntegrationStatus::Success);
    MaxOrder = std::max(MaxOrder, D.currentOrder());
  }
  EXPECT_GE(MaxOrder, 3u);
  EXPECT_LE(MaxOrder, MultistepDriver::MaxOrder);
}

TEST(MultistepDriverTest, SwitchMethodResetsOrderAndCounts) {
  TestProblem P = makeExponentialDecay();
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Adams);
  D.begin(0.0, P.InitialState.data(), 5.0);
  for (int I = 0; I < 12; ++I)
    ASSERT_EQ(D.advance(), IntegrationStatus::Success);
  EXPECT_GT(D.currentOrder(), 1u);
  D.switchMethod(MultistepMethod::Bdf);
  EXPECT_EQ(D.method(), MultistepMethod::Bdf);
  EXPECT_EQ(D.currentOrder(), 1u);
  EXPECT_EQ(D.stats().SolverSwitches, 1u);
  // Keeps integrating correctly after the switch.
  while (!D.done())
    ASSERT_EQ(D.advance(), IntegrationStatus::Success);
  EXPECT_NEAR(D.state()[0], std::exp(-5.0), 1e-3);
}

TEST(MultistepDriverTest, SwitchToSameMethodIsNoOp) {
  TestProblem P = makeExponentialDecay();
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Adams);
  D.begin(0.0, P.InitialState.data(), 1.0);
  D.switchMethod(MultistepMethod::Adams);
  EXPECT_EQ(D.stats().SolverSwitches, 0u);
}

TEST(MultistepDriverTest, SpectralRadiusProbeMatchesProblem) {
  TestProblem P = makeLinearStiff(1e4);
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Bdf);
  D.begin(0.0, P.InitialState.data(), 1.0);
  EXPECT_NEAR(D.estimateSpectralRadius(), 1e4, 100.0);
}

TEST(MultistepDriverTest, InterpolantCoversLastStep) {
  TestProblem P = makeExponentialDecay();
  SolverOptions Opts;
  MultistepDriver D(*P.System, Opts, MultistepMethod::Bdf);
  D.begin(0.0, P.InitialState.data(), 5.0);
  ASSERT_EQ(D.advance(), IntegrationStatus::Success);
  const StepInterpolant &I = D.lastStepInterpolant();
  EXPECT_DOUBLE_EQ(I.endTime(), D.time());
  EXPECT_LT(I.beginTime(), I.endTime());
  double Mid;
  I.evaluate(0.5 * (I.beginTime() + I.endTime()), &Mid);
  EXPECT_NEAR(Mid, std::exp(-0.5 * (I.beginTime() + I.endTime())), 1e-5);
}

//===----------------------------------------------------------------------===//
// LSODA switching behavior.
//===----------------------------------------------------------------------===//

TEST(LsodaTest, SwitchesToBdfOnRobertson) {
  TestProblem P = makeRobertson();
  LsodaSolver S;
  SolverOptions Opts;
  Opts.MaxSteps = 100000;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R = S.integrate(*P.System, 0, P.EndTime, Y, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_GE(R.Stats.SolverSwitches, 1u);
}

TEST(LsodaTest, StaysOnAdamsForNonStiffProblems) {
  TestProblem P = makeHarmonicOscillator();
  LsodaSolver S;
  SolverOptions Opts;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R = S.integrate(*P.System, 0, P.EndTime, Y, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Stats.SolverSwitches, 0u);
  EXPECT_EQ(R.Stats.LuFactorizations, 0u);
}

TEST(LsodaTest, ProbeIntervalIsTunable) {
  TestProblem P = makeRobertson();
  LsodaSolver Eager;
  Eager.ProbeInterval = 5;
  LsodaSolver Lazy;
  Lazy.ProbeInterval = 1000000;
  SolverOptions Opts;
  Opts.MaxSteps = 200000;
  std::vector<double> YE = P.InitialState, YL = P.InitialState;
  IntegrationResult RE = Eager.integrate(*P.System, 0, P.EndTime, YE, Opts);
  IntegrationResult RL = Lazy.integrate(*P.System, 0, P.EndTime, YL, Opts);
  ASSERT_TRUE(RE.ok());
  // The eager prober switches; the lazy one never probes and pays many
  // more (or failing) Adams steps.
  EXPECT_GE(RE.Stats.SolverSwitches, 1u);
  EXPECT_EQ(RL.Stats.SolverSwitches, 0u);
  if (RL.ok()) {
    EXPECT_GT(RL.Stats.Steps, RE.Stats.Steps);
  }
}

//===----------------------------------------------------------------------===//
// VODE start-time heuristic.
//===----------------------------------------------------------------------===//

TEST(VodeTest, PicksBdfForStiffStart) {
  TestProblem P = makeLinearStiff(1e6);
  VodeSolver S;
  SolverOptions Opts;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R = S.integrate(*P.System, 0, P.EndTime, Y, Opts);
  ASSERT_TRUE(R.ok());
  // BDF was chosen: Newton machinery ran.
  EXPECT_GT(R.Stats.LuFactorizations, 0u);
}

TEST(VodeTest, PicksAdamsForNonStiffStart) {
  TestProblem P = makeHarmonicOscillator();
  VodeSolver S;
  SolverOptions Opts;
  std::vector<double> Y = P.InitialState;
  IntegrationResult R = S.integrate(*P.System, 0, P.EndTime, Y, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Stats.LuFactorizations, 0u);
}

TEST(VodeTest, ThresholdIsTunable) {
  TestProblem P = makeLinearStiff(1e3); // rho * horizon = 2000.
  VodeSolver Strict;
  Strict.StiffnessThreshold = 100.0; // -> BDF.
  VodeSolver Loose;
  Loose.StiffnessThreshold = 1e9; // -> Adams.
  SolverOptions Opts;
  Opts.MaxSteps = 500000;
  std::vector<double> YS = P.InitialState, YL = P.InitialState;
  IntegrationResult RS = Strict.integrate(*P.System, 0, P.EndTime, YS, Opts);
  IntegrationResult RL = Loose.integrate(*P.System, 0, P.EndTime, YL, Opts);
  ASSERT_TRUE(RS.ok());
  ASSERT_TRUE(RL.ok());
  EXPECT_GT(RS.Stats.LuFactorizations, 0u);
  EXPECT_EQ(RL.Stats.LuFactorizations, 0u);
}

// Jacobian evaluations the retired fixed policy (a refresh every 25
// steps) spent on the two problems below with BDF and MaxSteps = 500000.
constexpr uint64_t FixedPolicyJacobiansLinearStiff = 18;
constexpr uint64_t FixedPolicyJacobiansRobertson = 13;

TEST(JacobianReuseTest, AdaptiveReuseCutsJacobianEvaluationsOnLinearStiff) {
  // A linear problem has a constant Jacobian: once formed it never goes
  // stale, Newton converges in effectively one iteration forever, and the
  // convergence-rate policy should refresh only on the rare age bound.
  TestProblem P = makeLinearStiff(1e4);
  BdfSolver S;
  SolverOptions Opts;
  Opts.MaxSteps = 500000;

  std::vector<double> Y = P.InitialState;
  const uint64_t ReusesBefore =
      metrics().counter("psg.ode.jacobian_reuses").value();
  IntegrationResult R = S.integrate(*P.System, 0, P.EndTime, Y, Opts);
  const uint64_t ReusesAfter =
      metrics().counter("psg.ode.jacobian_reuses").value();
  ASSERT_TRUE(R.ok());

  EXPECT_LT(R.Stats.JacobianEvaluations, FixedPolicyJacobiansLinearStiff);
  EXPECT_GT(ReusesAfter, ReusesBefore);

  // Reuse must still land on the exact solution.
  ASSERT_FALSE(P.Reference.empty());
  for (size_t I = 0; I < P.Reference.size(); ++I)
    EXPECT_NEAR(Y[I], P.Reference[I], 1e-4 + 1e-3 * std::abs(P.Reference[I]));
}

TEST(JacobianReuseTest, AdaptiveReuseStaysAccurateOnRobertson) {
  // Robertson's Jacobian does change along the trajectory, so this pins
  // the other side of the policy: deferring refreshes until Newton slows
  // down must not cost accuracy against the reference solution.
  TestProblem P = makeRobertson();
  BdfSolver S;
  SolverOptions Opts;
  Opts.MaxSteps = 500000;

  std::vector<double> Y = P.InitialState;
  IntegrationResult R = S.integrate(*P.System, 0, P.EndTime, Y, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_LE(R.Stats.JacobianEvaluations, FixedPolicyJacobiansRobertson);
  ASSERT_FALSE(P.Reference.empty());
  for (size_t I = 0; I < P.Reference.size(); ++I)
    EXPECT_NEAR(Y[I], P.Reference[I], 1e-4 + 5e-3 * std::abs(P.Reference[I]));
}

//===----------------------------------------------------------------------===//
// History resampling.
//===----------------------------------------------------------------------===//

namespace {
/// The per-component resample that multistepdetail::resampleRows
/// replaced, kept as its bit-exact oracle.
void resampleOneComponentAtATime(std::vector<std::vector<double>> &Rows,
                                 size_t K, size_t N, double Spacing,
                                 double NewSpacing) {
  std::vector<double> X(K), XNew(K), Diff(K);
  for (size_t JJ = 0; JJ < K; ++JJ) {
    X[JJ] = -static_cast<double>(JJ) * Spacing;
    XNew[JJ] = -static_cast<double>(JJ) * NewSpacing;
  }
  for (size_t I = 0; I < N; ++I) {
    for (size_t JJ = 0; JJ < K; ++JJ)
      Diff[JJ] = Rows[JJ][I];
    for (size_t Level = 1; Level < K; ++Level)
      for (size_t JJ = K - 1; JJ >= Level; --JJ)
        Diff[JJ] = (Diff[JJ] - Diff[JJ - 1]) / (X[JJ] - X[JJ - Level]);
    for (size_t Target = 1; Target < K; ++Target) {
      double Value = Diff[K - 1];
      for (size_t Level = K - 1; Level-- > 0;)
        Value = Value * (XNew[Target] - X[Level]) + Diff[Level];
      Rows[Target][I] = Value;
    }
  }
}

bool sameBits(double A, double B) {
  return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
}
} // namespace

TEST(MultistepResampleTest, AllComponentsMatchPerComponentBits) {
  // Resampling every component at once must return the per-component
  // loop's bits for every history length, dimension and spacing ratio,
  // special values included.
  using Limits = std::numeric_limits<double>;
  const double Specials[] = {
      -0.0,
      0.0,
      Limits::quiet_NaN(),
      Limits::infinity(),
      -Limits::infinity(),
      Limits::denorm_min(),
      Limits::min(),
      Limits::max(),
      -Limits::max(),
  };
  using Rows = std::vector<std::vector<double>>;
  Rng R(7);
  size_t Cases = 0, Mismatches = 0;
  const size_t MaxRows = MultistepDriver::MaxOrder + 2;
  for (size_t K = 2; K <= MaxRows; ++K)
    for (size_t N = 1; N <= 40; ++N)
      for (int Rep = 0; Rep < 6; ++Rep) {
        const double Sign = R.uniform() < 0.5 ? -1.0 : 1.0;
        const double Spacing = Sign * std::pow(10.0, R.uniform(-8, 1));
        const double Ratio = std::pow(10.0, R.uniform(-1, 1));
        const double NewSpacing = Spacing * Ratio;
        // Smooth histories, scattered values over ten decades, and now and
        // then a special value.
        Rows Want(MaxRows, std::vector<double>(N));
        for (size_t JJ = 0; JJ < K; ++JJ)
          for (size_t I = 0; I < N; ++I) {
            const double U = R.uniform();
            double V = 1.0 + 1e-3 * R.uniform(-1, 1) * JJ;
            if (U < 0.5)
              V = R.uniform(-1, 1) * std::pow(10.0, R.uniform(-5, 5));
            if (U < 0.05)
              V = Specials[R.uniformInt(std::size(Specials))];
            Want[JJ][I] = V;
          }
        Rows Got = Want;
        Rows Diff(MaxRows, std::vector<double>(N));
        resampleOneComponentAtATime(Want, K, N, Spacing, NewSpacing);
        multistepdetail::resampleRows(Got.data(), K, N, Spacing, NewSpacing,
                                      Diff.data());
        ++Cases;
        bool Same = true;
        for (size_t JJ = 0; JJ < K; ++JJ)
          for (size_t I = 0; I < N; ++I)
            Same = Same && sameBits(Got[JJ][I], Want[JJ][I]);
        if (!Same && ++Mismatches <= 5)
          ADD_FAILURE() << "K " << K << ", N " << N << ", ratio " << Ratio;
      }
  EXPECT_EQ(Mismatches, 0u) << "of " << Cases << " cases";
}

//===----------------------------------------------------------------------===//
// BDF start on stiff problems.
//===----------------------------------------------------------------------===//

TEST(BdfStartTest, BdfAndVodeFinishStiffDecayChains) {
  // A run that begins on BDF has a single history row. Predicting the
  // constant state made the first error estimate O(h), and on these decay
  // chains h shrank below 1e-14 at t = 0. With the degree-1 start both
  // finish and agree with RADAU5.
  const size_t Lengths[] = {4, 10, 12, 12};
  const double Spreads[] = {4.0, 4.0, 4.0, 6.0};
  for (size_t Chain = 0; Chain < std::size(Lengths); ++Chain) {
    const size_t Length = Lengths[Chain];
    const double Spread = Spreads[Chain];
    const ReactionNetwork Net = makeDecayChainNetwork(Length, Spread);
    const CompiledOdeSystem Sys(Net);
    const std::vector<double> Y0 = Net.initialState();
    SolverOptions Tight;
    Tight.RelTol = 1e-10;
    Tight.AbsTol = 1e-12;
    Tight.MaxSteps = 1000000;
    std::vector<double> Reference = Y0;
    Radau5Solver Radau;
    ASSERT_TRUE(Radau.integrate(Sys, 0.0, 5.0, Reference, Tight).ok());

    BdfSolver Bdf;
    VodeSolver Vode;
    OdeSolver *Solvers[] = {&Bdf, &Vode};
    for (OdeSolver *Solver : Solvers) {
      for (const SolverOptions &Opts : {SolverOptions(), Tight}) {
        std::vector<double> Y = Y0;
        const IntegrationResult Result =
            Solver->integrate(Sys, 0.0, 5.0, Y, Opts);
        ASSERT_TRUE(Result.ok())
            << Solver->name() << " on a decay chain of length " << Length
            << " and spread " << Spread << " stopped at t = "
            << Result.FinalTime;
        EXPECT_GT(Result.Stats.LuFactorizations, 0u) << Solver->name();
        const double Tol = Opts.RelTol == Tight.RelTol ? 1e-8 : 1e-5;
        for (size_t I = 0; I < Y.size(); ++I) {
          const double Bound = Tol * std::max(1.0, std::abs(Reference[I]));
          EXPECT_NEAR(Y[I], Reference[I], Bound)
              << Solver->name() << ", species " << I;
        }
      }
    }
  }
}
