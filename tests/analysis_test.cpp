//===- tests/analysis_test.cpp - Analysis layer tests ---------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "analysis/Fitness.h"
#include "analysis/Oscillation.h"
#include "analysis/Psa.h"
#include "analysis/Pso.h"
#include "analysis/Sobol.h"

#include "rbm/CuratedModels.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace psg;

//===----------------------------------------------------------------------===//
// Oscillation metrics.
//===----------------------------------------------------------------------===//

TEST(OscillationTest, DetectsSineWave) {
  std::vector<double> Times, Values;
  for (int I = 0; I <= 400; ++I) {
    const double T = 0.05 * I;
    Times.push_back(T);
    Values.push_back(3.0 + 2.0 * std::sin(2.0 * M_PI * T / 4.0));
  }
  OscillationMetrics M = analyzeOscillation(Times, Values);
  EXPECT_TRUE(M.Oscillating);
  EXPECT_NEAR(M.Amplitude, 2.0, 0.05);
  EXPECT_NEAR(M.Period, 4.0, 0.2);
  // The window holds 2.5 periods, so the mean carries a half-period bias.
  EXPECT_NEAR(M.Mean, 3.0, 0.3);
}

TEST(OscillationTest, FlatLineIsNotOscillating) {
  std::vector<double> Times, Values;
  for (int I = 0; I <= 100; ++I) {
    Times.push_back(0.1 * I);
    Values.push_back(1.0);
  }
  EXPECT_FALSE(analyzeOscillation(Times, Values).Oscillating);
}

TEST(OscillationTest, DecayToSteadyStateIsNotOscillating) {
  std::vector<double> Times, Values;
  for (int I = 0; I <= 200; ++I) {
    const double T = 0.05 * I;
    Times.push_back(T);
    Values.push_back(1.0 + std::exp(-2.0 * T));
  }
  EXPECT_FALSE(analyzeOscillation(Times, Values).Oscillating);
}

TEST(OscillationTest, TransientIsDiscarded) {
  // Oscillation that dies out: post-transient the series is flat.
  std::vector<double> Times, Values;
  for (int I = 0; I <= 400; ++I) {
    const double T = 0.05 * I;
    Times.push_back(T);
    Values.push_back(1.0 + std::exp(-T) * std::sin(8.0 * T));
  }
  OscillationMetrics M = analyzeOscillation(Times, Values, 0.5, 0.05);
  EXPECT_FALSE(M.Oscillating);
}

TEST(OscillationTest, TinySeriesIsRejected) {
  std::vector<double> Times = {0, 1, 2};
  std::vector<double> Values = {0, 1, 0};
  EXPECT_FALSE(analyzeOscillation(Times, Values).Oscillating);
}

//===----------------------------------------------------------------------===//
// PSA drivers.
//===----------------------------------------------------------------------===//

namespace {
BatchEngine makeEngine(double EndTime, size_t Samples,
                       const char *Sim = "psg-engine") {
  EngineOptions Opts;
  Opts.SimulatorName = Sim;
  Opts.EndTime = EndTime;
  Opts.OutputSamples = Samples;
  return BatchEngine(CostModel::paperSetup(), Opts);
}
} // namespace

TEST(PsaTest, Psa1dFindsBrusselatorBifurcation) {
  // Sweeping the X->Y conversion rate through the Hopf point at
  // 1 + feed^2 = 2 must show no oscillation below and oscillation above.
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  ParameterAxis B;
  B.Name = "b";
  B.Target = AxisTarget::RateConstant;
  B.Reactions = {1};
  B.Lo = 1.2;
  B.Hi = 3.2;
  Space.addAxis(B);
  BatchEngine Engine = makeEngine(80.0, 201);
  Psa1dResult R = runPsa1d(Engine, Space, 9,
                           oscillationAmplitudeReducer(
                               *Net.findSpecies("X")));
  ASSERT_EQ(R.AxisValues.size(), 9u);
  ASSERT_EQ(R.Metric.size(), 9u);
  EXPECT_LT(R.Metric.front(), 0.05); // b = 1.2: steady state.
  EXPECT_GT(R.Metric.back(), 0.3);   // b = 3.2: limit cycle.
}

TEST(PsaTest, Psa2dLayoutMatchesAxes) {
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  ParameterAxis A0;
  A0.Name = "s0";
  A0.Target = AxisTarget::InitialConcentration;
  A0.SpeciesIndex = 0;
  A0.Lo = 1.0;
  A0.Hi = 2.0;
  Space.addAxis(A0);
  ParameterAxis A1;
  A1.Name = "k0";
  A1.Target = AxisTarget::RateConstant;
  A1.Reactions = {0};
  A1.Lo = 0.1;
  A1.Hi = 1.0;
  Space.addAxis(A1);
  BatchEngine Engine = makeEngine(1.0, 3);
  Psa2dResult R = runPsa2d(Engine, Space, 4, 5, finalValueReducer(0));
  EXPECT_EQ(R.Axis0Values.size(), 4u);
  EXPECT_EQ(R.Axis1Values.size(), 5u);
  EXPECT_EQ(R.Metric.size(), 20u);
  // Larger initial S0 leaves more S0 at the end (same k); the final value
  // must increase along axis 0 and decrease along axis 1.
  EXPECT_GT(R.at(3, 0), R.at(0, 0));
  EXPECT_LT(R.at(0, 4), R.at(0, 0));
}

TEST(PsaTest, Psa1dGridShapeMatchesRequest) {
  // Grid-shape regression: a 1D sweep at resolution P must produce P
  // axis values spanning [Lo, Hi] inclusive on a uniform grid, one
  // metric per point, and exactly P simulations.
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  ParameterAxis Axis;
  Axis.Name = "k0";
  Axis.Target = AxisTarget::RateConstant;
  Axis.Reactions = {0};
  Axis.Lo = 0.2;
  Axis.Hi = 1.0;
  Space.addAxis(Axis);
  BatchEngine Engine = makeEngine(1.0, 3);
  const size_t Points = 7;
  Psa1dResult R = runPsa1d(Engine, Space, Points, finalValueReducer(0));
  ASSERT_EQ(R.AxisValues.size(), Points);
  ASSERT_EQ(R.Metric.size(), Points);
  EXPECT_EQ(R.Report.Simulations, Points);
  EXPECT_DOUBLE_EQ(R.AxisValues.front(), Axis.Lo);
  EXPECT_DOUBLE_EQ(R.AxisValues.back(), Axis.Hi);
  const double Step = (Axis.Hi - Axis.Lo) / static_cast<double>(Points - 1);
  for (size_t I = 1; I < Points; ++I)
    EXPECT_NEAR(R.AxisValues[I] - R.AxisValues[I - 1], Step, 1e-12);
  // Faster decay leaves less S0: the metric must strictly decrease.
  for (size_t I = 1; I < Points; ++I)
    EXPECT_LT(R.Metric[I], R.Metric[I - 1]);
}

TEST(PsaTest, Psa2dMapIsRowMajorWithAxis1Fastest) {
  // Layout regression: Metric[I0 * Res1 + I1] must correspond to
  // (Axis0Values[I0], Axis1Values[I1]) regardless of how the sweep is
  // chunked into sub-batches. A zero-rate network freezes the state, so
  // the final value of species 0 IS the axis-0 coordinate and the final
  // value of species 1 IS the axis-1 coordinate.
  ReactionNetwork Net("frozen");
  const unsigned S0 = Net.addSpecies("s0", 1.0);
  const unsigned S1 = Net.addSpecies("s1", 1.0);
  Reaction Rx;
  Rx.Reactants = {{S0, 1}};
  Rx.Products = {{S1, 1}};
  Rx.RateConstant = 0.0;
  Net.addReaction(Rx);
  ParameterSpace Space(Net);
  for (int A = 0; A < 2; ++A) {
    ParameterAxis Axis;
    Axis.Name = "s" + std::to_string(A);
    Axis.Target = AxisTarget::InitialConcentration;
    Axis.SpeciesIndex = static_cast<unsigned>(A);
    Axis.Lo = 1.0 + A;
    Axis.Hi = 2.0 + A;
    Space.addAxis(Axis);
  }
  EngineOptions Opts;
  Opts.EndTime = 0.5;
  Opts.OutputSamples = 2;
  Opts.SubBatchSize = 5; // Deliberately misaligned with the 3x4 grid.
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  const size_t Res0 = 3, Res1 = 4;
  Psa2dResult R0 = runPsa2d(Engine, Space, Res0, Res1, finalValueReducer(0));
  Psa2dResult R1 = runPsa2d(Engine, Space, Res0, Res1, finalValueReducer(1));
  ASSERT_EQ(R0.Metric.size(), Res0 * Res1);
  for (size_t I0 = 0; I0 < Res0; ++I0)
    for (size_t I1 = 0; I1 < Res1; ++I1) {
      EXPECT_NEAR(R0.at(I0, I1), R0.Axis0Values[I0], 1e-9)
          << "cell (" << I0 << ", " << I1 << ")";
      EXPECT_NEAR(R1.at(I0, I1), R1.Axis1Values[I1], 1e-9)
          << "cell (" << I0 << ", " << I1 << ")";
    }
}

TEST(PsaTest, ReducersCountFailedSimulations) {
  // A failed outcome must contribute its fallback value and bump the
  // psg.analysis.reduce_failures counter, even when the trajectory
  // buffer holds stale samples from the aborted integration.
  SimulationOutcome Failed;
  Failed.Result.Status = IntegrationStatus::MaxStepsExceeded;
  Failed.Dynamics = Trajectory(2);
  double Stale[2] = {42.0, 43.0};
  Failed.Dynamics.addSample(0, Stale);
  const uint64_t Before =
      metrics().snapshot().counterValue("psg.analysis.reduce_failures");
  EXPECT_DOUBLE_EQ(finalValueReducer(0)(Failed), 0.0);
  EXPECT_DOUBLE_EQ(oscillationAmplitudeReducer(0)(Failed), 0.0);
  const uint64_t After =
      metrics().snapshot().counterValue("psg.analysis.reduce_failures");
  EXPECT_EQ(After - Before, 2u);
}

TEST(PsaTest, FinalValueReducerReadsLastSample) {
  SimulationOutcome O;
  O.Dynamics = Trajectory(2);
  double A[2] = {1, 2};
  double B[2] = {3, 4};
  O.Dynamics.addSample(0, A);
  O.Dynamics.addSample(1, B);
  EXPECT_DOUBLE_EQ(finalValueReducer(1)(O), 4.0);
}

TEST(PsaTest, ReducersHandleEmptyDynamics) {
  SimulationOutcome O;
  EXPECT_DOUBLE_EQ(finalValueReducer(0)(O), 0.0);
  EXPECT_DOUBLE_EQ(oscillationAmplitudeReducer(0)(O), 0.0);
}

//===----------------------------------------------------------------------===//
// Sobol sensitivity analysis.
//===----------------------------------------------------------------------===//

TEST(SobolTest, HaltonPointsMatchRadicalInverseExactly) {
  // Fixed-vector determinism regression: the first 8 Halton points in 3
  // dimensions are the radical inverses in bases 2, 3, 5. Any change to
  // the prime table or digit recursion breaks Saltelli reproducibility
  // across releases, so these are pinned exactly.
  const double Expected[8][3] = {
      {1.0 / 2, 1.0 / 3, 1.0 / 5},  {1.0 / 4, 2.0 / 3, 2.0 / 5},
      {3.0 / 4, 1.0 / 9, 3.0 / 5},  {1.0 / 8, 4.0 / 9, 4.0 / 5},
      {5.0 / 8, 7.0 / 9, 1.0 / 25}, {3.0 / 8, 2.0 / 9, 6.0 / 25},
      {7.0 / 8, 5.0 / 9, 11.0 / 25}, {1.0 / 16, 8.0 / 9, 16.0 / 25}};
  for (uint64_t I = 1; I <= 8; ++I) {
    const std::vector<double> P = haltonPoint(I, 3);
    ASSERT_EQ(P.size(), 3u);
    for (size_t D = 0; D < 3; ++D)
      EXPECT_DOUBLE_EQ(P[D], Expected[I - 1][D])
          << "index " << I << " dim " << D;
  }
}

TEST(SobolTest, HaltonPointsAreInUnitCubeAndLowDiscrepancy) {
  double Sum = 0.0;
  const int N = 500;
  for (int I = 1; I <= N; ++I) {
    auto P = haltonPoint(I, 3);
    ASSERT_EQ(P.size(), 3u);
    for (double V : P) {
      EXPECT_GE(V, 0.0);
      EXPECT_LT(V, 1.0);
    }
    Sum += P[0];
  }
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

TEST(SobolTest, LinearModelIndicesMatchTheory) {
  // f = 2*x0 + 1*x1 over [0,1]^2: V_i ~ a_i^2/12, so S1 ratios are 4:1
  // and the model is additive (S1 == ST).
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  for (int A = 0; A < 2; ++A) {
    ParameterAxis Axis;
    Axis.Name = formatString("x%d", A);
    Axis.Target = AxisTarget::InitialConcentration;
    Axis.SpeciesIndex = static_cast<unsigned>(A);
    Axis.Lo = 0.0;
    Axis.Hi = 1.0;
    Space.addAxis(Axis);
  }
  BatchEngine Engine = makeEngine(0.1, 2);
  // The reducer ignores the simulation and computes the analytic linear
  // function of the *initial* sample, making the test exact and fast.
  TrajectoryReducer Linear = [](const SimulationOutcome &O) {
    return 2.0 * O.Dynamics.value(0, 0) + 1.0 * O.Dynamics.value(0, 1);
  };
  SobolOptions Opts;
  Opts.BaseSamples = 256;
  Opts.BootstrapRounds = 50;
  SobolResult R = runSobolSa(Engine, Space, Linear, Opts);
  ASSERT_EQ(R.Indices.size(), 2u);
  EXPECT_EQ(R.TotalSimulations, 256u * 4u);
  EXPECT_NEAR(R.Indices[0].S1, 0.8, 0.08);
  EXPECT_NEAR(R.Indices[1].S1, 0.2, 0.08);
  EXPECT_NEAR(R.Indices[0].ST, 0.8, 0.08);
  EXPECT_NEAR(R.Indices[1].ST, 0.2, 0.08);
  EXPECT_GT(R.Indices[0].S1Conf, 0.0);
  EXPECT_GT(R.OutputVariance, 0.0);
}

TEST(SobolTest, DummyFactorHasNearZeroIndices) {
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  for (int A = 0; A < 2; ++A) {
    ParameterAxis Axis;
    Axis.Name = formatString("x%d", A);
    Axis.Target = AxisTarget::InitialConcentration;
    Axis.SpeciesIndex = static_cast<unsigned>(A);
    Axis.Lo = 0.0;
    Axis.Hi = 1.0;
    Space.addAxis(Axis);
  }
  BatchEngine Engine = makeEngine(0.1, 2);
  TrajectoryReducer OnlyX0 = [](const SimulationOutcome &O) {
    return O.Dynamics.value(0, 0) * O.Dynamics.value(0, 0);
  };
  SobolOptions Opts;
  Opts.BaseSamples = 256;
  Opts.BootstrapRounds = 30;
  SobolResult R = runSobolSa(Engine, Space, OnlyX0, Opts);
  EXPECT_NEAR(R.Indices[1].S1, 0.0, 0.05);
  EXPECT_NEAR(R.Indices[1].ST, 0.0, 0.05);
  EXPECT_GT(R.Indices[0].ST, 0.9);
}

//===----------------------------------------------------------------------===//
// PSO.
//===----------------------------------------------------------------------===//

namespace {
BatchObjective sphere() {
  return [](const std::vector<std::vector<double>> &Positions) {
    std::vector<double> F(Positions.size());
    for (size_t P = 0; P < Positions.size(); ++P) {
      double Sum = 0;
      for (double X : Positions[P])
        Sum += (X - 1.0) * (X - 1.0);
      F[P] = Sum;
    }
    return F;
  };
}
} // namespace

class PsoModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(PsoModeTest, ConvergesOnSphere) {
  PsoOptions Opts;
  Opts.FuzzySelfTuning = GetParam();
  Opts.SwarmSize = 20;
  Opts.Iterations = 60;
  std::vector<std::pair<double, double>> Bounds(4, {-5.0, 5.0});
  PsoResult R = runPso(Bounds, sphere(), Opts);
  EXPECT_LT(R.BestFitness, 1e-3);
  for (double X : R.BestPosition)
    EXPECT_NEAR(X, 1.0, 0.1);
  EXPECT_EQ(R.Evaluations, 20u * 61u);
}

TEST_P(PsoModeTest, HistoryIsMonotoneNonIncreasing) {
  PsoOptions Opts;
  Opts.FuzzySelfTuning = GetParam();
  Opts.Iterations = 30;
  std::vector<std::pair<double, double>> Bounds(3, {-2.0, 2.0});
  PsoResult R = runPso(Bounds, sphere(), Opts);
  for (size_t I = 1; I < R.ConvergenceHistory.size(); ++I)
    EXPECT_LE(R.ConvergenceHistory[I], R.ConvergenceHistory[I - 1]);
}

INSTANTIATE_TEST_SUITE_P(Modes, PsoModeTest, ::testing::Bool());

TEST(PsoTest, RespectsBounds) {
  PsoOptions Opts;
  Opts.Iterations = 20;
  std::vector<std::pair<double, double>> Bounds = {{0.0, 1.0}, {-1.0, 0.0}};
  BatchObjective Checked =
      [&](const std::vector<std::vector<double>> &Positions) {
        std::vector<double> F(Positions.size(), 0.0);
        for (size_t P = 0; P < Positions.size(); ++P)
          for (size_t D = 0; D < 2; ++D) {
            EXPECT_GE(Positions[P][D], Bounds[D].first - 1e-9);
            EXPECT_LE(Positions[P][D], Bounds[D].second + 1e-9);
            F[P] += Positions[P][D] * Positions[P][D];
          }
        return F;
      };
  runPso(Bounds, Checked, Opts);
}

TEST(PsoTest, DeterministicForFixedSeed) {
  PsoOptions Opts;
  Opts.Iterations = 15;
  std::vector<std::pair<double, double>> Bounds(2, {-3.0, 3.0});
  PsoResult A = runPso(Bounds, sphere(), Opts);
  PsoResult B = runPso(Bounds, sphere(), Opts);
  EXPECT_EQ(A.BestFitness, B.BestFitness);
  EXPECT_EQ(A.BestPosition, B.BestPosition);
}

TEST(FstPsoTest, RulesStayInReasonableRanges) {
  for (double Dist : {0.0, 0.25, 0.5, 0.75, 1.0})
    for (double Imp : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
      auto C = fstpso::tuneCoefficients(Dist, Imp);
      EXPECT_GT(C.Inertia, 0.2);
      EXPECT_LT(C.Inertia, 1.3);
      EXPECT_GT(C.Cognitive, 0.5);
      EXPECT_LT(C.Cognitive, 2.6);
      EXPECT_GT(C.Social, 0.5);
      EXPECT_LT(C.Social, 2.6);
    }
}

TEST(FstPsoTest, FarParticlesExploreNearParticlesExploit) {
  auto Far = fstpso::tuneCoefficients(1.0, -0.5);
  auto Near = fstpso::tuneCoefficients(0.05, 0.8);
  EXPECT_GT(Far.Inertia, Near.Inertia);
  EXPECT_GT(Far.Cognitive, Near.Cognitive);
  EXPECT_LT(Far.Social, Near.Social);
}

//===----------------------------------------------------------------------===//
// Fitness.
//===----------------------------------------------------------------------===//

TEST(FitnessTest, IdenticalTrajectoriesScoreZero) {
  Trajectory T(2);
  double A[2] = {1, 2};
  double B[2] = {2, 3};
  T.addSample(0, A);
  T.addSample(1, B);
  EXPECT_DOUBLE_EQ(relativeTrajectoryDistance(T, T, {0, 1}), 0.0);
}

TEST(FitnessTest, DistanceIsRelative) {
  Trajectory Target(1), Sim(1);
  double V1 = 10.0, V2 = 11.0, V0 = 5.0;
  Target.addSample(0, &V0);
  Target.addSample(1, &V1);
  Sim.addSample(0, &V0);
  Sim.addSample(1, &V2);
  EXPECT_NEAR(relativeTrajectoryDistance(Sim, Target, {0}), 0.1, 1e-9);
}

TEST(FitnessTest, EngineObjectivePenalizesFailures) {
  ReactionNetwork Net = makeRobertsonNetwork();
  EngineOptions Opts;
  Opts.SimulatorName = "cpu-lsoda";
  Opts.EndTime = 40.0;
  Opts.OutputSamples = 5;
  Opts.Solver.MaxSteps = 5; // Force failures.
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  ParameterSpace Space(Net);
  ParameterAxis Axis;
  Axis.Name = "k0";
  Axis.Target = AxisTarget::RateConstant;
  Axis.Reactions = {0};
  Axis.Lo = 0.01;
  Axis.Hi = 0.1;
  Space.addAxis(Axis);
  Trajectory Target(3);
  for (int S = 0; S < 5; ++S) {
    double Row[3] = {1, 0, 0};
    Target.addSample(S * 10.0, Row);
  }
  BatchObjective Objective =
      makeTrajectoryFitObjective(Engine, Space, Target, {0}, 1e9);
  std::vector<double> F = Objective({{0.04}});
  ASSERT_EQ(F.size(), 1u);
  EXPECT_DOUBLE_EQ(F[0], 1e9);
}

TEST(SobolTest, SecondOrderDetectsInteractions) {
  // f = x0 * x1 on [0,1]^2: S1_0 = S1_1 = 3/7, pure interaction
  // S2_01 = 1/7. An additive term x2 contributes no interactions.
  ReactionNetwork Net = makeDecayChainNetwork(4, 0.5);
  ParameterSpace Space(Net);
  for (int A = 0; A < 3; ++A) {
    ParameterAxis Axis;
    Axis.Name = formatString("x%d", A);
    Axis.Target = AxisTarget::InitialConcentration;
    Axis.SpeciesIndex = static_cast<unsigned>(A);
    Axis.Lo = 0.0;
    Axis.Hi = 1.0;
    Space.addAxis(Axis);
  }
  BatchEngine Engine = makeEngine(0.1, 2);
  TrajectoryReducer Product = [](const SimulationOutcome &O) {
    return O.Dynamics.value(0, 0) * O.Dynamics.value(0, 1) +
           0.05 * O.Dynamics.value(0, 2);
  };
  SobolOptions Opts;
  Opts.BaseSamples = 512;
  Opts.BootstrapRounds = 20;
  Opts.ComputeSecondOrder = true;
  SobolResult R = runSobolSa(Engine, Space, Product, Opts);
  EXPECT_EQ(R.TotalSimulations, 512u * 8u); // n(2k + 2).
  ASSERT_EQ(R.PairIndices.size(), 3u);      // (0,1), (0,2), (1,2).
  // The (x0, x1) pair interacts strongly; pairs with x2 do not.
  double S2_01 = 0, S2_02 = 0, S2_12 = 0;
  for (const SobolPairIndex &P : R.PairIndices) {
    if (P.FactorA == 0 && P.FactorB == 1)
      S2_01 = P.S2;
    if (P.FactorA == 0 && P.FactorB == 2)
      S2_02 = P.S2;
    if (P.FactorA == 1 && P.FactorB == 2)
      S2_12 = P.S2;
  }
  EXPECT_NEAR(S2_01, 1.0 / 7.0, 0.06);
  EXPECT_NEAR(S2_02, 0.0, 0.06);
  EXPECT_NEAR(S2_12, 0.0, 0.06);
}

TEST(SobolTest, SecondOrderOffByDefault) {
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  ParameterAxis Axis;
  Axis.Name = "x0";
  Axis.Target = AxisTarget::InitialConcentration;
  Axis.SpeciesIndex = 0;
  Axis.Lo = 0.0;
  Axis.Hi = 1.0;
  Space.addAxis(Axis);
  BatchEngine Engine = makeEngine(0.1, 2);
  SobolOptions Opts;
  Opts.BaseSamples = 16;
  Opts.BootstrapRounds = 5;
  SobolResult R = runSobolSa(Engine, Space, finalValueReducer(0), Opts);
  EXPECT_TRUE(R.PairIndices.empty());
  EXPECT_EQ(R.TotalSimulations, 16u * 3u);
}
