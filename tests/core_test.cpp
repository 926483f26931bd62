//===- tests/core_test.cpp - Parameter space and engine tests -------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"
#include "core/ParameterSpace.h"

#include "rbm/CuratedModels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

using namespace psg;

namespace {
ParameterAxis initialAxis(const ReactionNetwork &Net, const char *Species,
                          double Lo, double Hi, bool Log = false) {
  ParameterAxis Axis;
  Axis.Name = Species;
  Axis.Target = AxisTarget::InitialConcentration;
  Axis.SpeciesIndex = *Net.findSpecies(Species);
  Axis.Lo = Lo;
  Axis.Hi = Hi;
  Axis.LogScale = Log;
  return Axis;
}
} // namespace

//===----------------------------------------------------------------------===//
// ParameterSpace sampling.
//===----------------------------------------------------------------------===//

TEST(ParameterSpaceTest, GridSampleCountsAndOrdering) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 0.0, 1.0));
  Space.addAxis(initialAxis(Net, "X", 0.0, 10.0));
  auto Points = Space.gridSample({3, 4});
  ASSERT_EQ(Points.size(), 12u);
  // Axis 1 is fastest.
  EXPECT_DOUBLE_EQ(Points[0][0], 0.0);
  EXPECT_DOUBLE_EQ(Points[0][1], 0.0);
  EXPECT_DOUBLE_EQ(Points[1][0], 0.0);
  EXPECT_NEAR(Points[1][1], 10.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Points[4][0], 0.5);
  EXPECT_DOUBLE_EQ(Points.back()[0], 1.0);
  EXPECT_DOUBLE_EQ(Points.back()[1], 10.0);
}

TEST(ParameterSpaceTest, SinglePointGridUsesMidpoint) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 2.0, 4.0));
  auto Points = Space.gridSample({1});
  ASSERT_EQ(Points.size(), 1u);
  EXPECT_DOUBLE_EQ(Points[0][0], 3.0);
}

TEST(ParameterSpaceTest, LogAxisGridIsGeometric) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 1e-4, 1.0, /*Log=*/true));
  auto Points = Space.gridSample({5});
  ASSERT_EQ(Points.size(), 5u);
  for (int I = 0; I < 5; ++I)
    EXPECT_NEAR(std::log10(Points[I][0]), -4.0 + I, 1e-9);
}

TEST(ParameterSpaceTest, RandomSampleWithinBounds) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 2.0, 5.0));
  Rng R(3);
  for (const auto &Point : Space.randomSample(200, R)) {
    EXPECT_GE(Point[0], 2.0);
    EXPECT_LT(Point[0], 5.0);
  }
}

TEST(ParameterSpaceTest, FromUnitCubeMapsEndpoints) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", -2.0, 6.0));
  EXPECT_DOUBLE_EQ(Space.fromUnitCube({0.0})[0], -2.0);
  EXPECT_DOUBLE_EQ(Space.fromUnitCube({0.5})[0], 2.0);
  EXPECT_DOUBLE_EQ(Space.fromUnitCube({1.0})[0], 6.0);
}

//===----------------------------------------------------------------------===//
// Point application.
//===----------------------------------------------------------------------===//

TEST(ParameterSpaceTest, AppliesInitialConcentration) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "X", 0.0, 10.0));
  Parameterization P = Space.applyPoint({7.5});
  EXPECT_DOUBLE_EQ(P.InitialState[*Net.findSpecies("X")], 7.5);
  // Untouched species keep their baseline.
  EXPECT_DOUBLE_EQ(P.InitialState[*Net.findSpecies("F")], 1.0);
  // Constants keep baselines too.
  EXPECT_DOUBLE_EQ(P.RateConstants[0], Net.reaction(0).RateConstant);
}

TEST(ParameterSpaceTest, AppliesSingleRateConstant) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  ParameterAxis Axis;
  Axis.Name = "k1";
  Axis.Target = AxisTarget::RateConstant;
  Axis.Reactions = {1};
  Axis.Lo = 0.0;
  Axis.Hi = 10.0;
  Space.addAxis(Axis);
  Parameterization P = Space.applyPoint({4.25});
  EXPECT_DOUBLE_EQ(P.RateConstants[1], 4.25);
  EXPECT_DOUBLE_EQ(P.RateConstants[0], Net.reaction(0).RateConstant);
}

TEST(ParameterSpaceTest, AppliesMultiplicativeGroup) {
  AutophagySurrogate S = makeAutophagySurrogate(4, 3);
  ParameterSpace Space(S.Net);
  ParameterAxis Axis;
  Axis.Name = "p9";
  Axis.Target = AxisTarget::RateConstantGroup;
  Axis.Reactions = S.P9Reactions;
  Axis.Multiplicative = true;
  Axis.Lo = 0.0;
  Axis.Hi = 100.0;
  Space.addAxis(Axis);
  Parameterization P = Space.applyPoint({10.0});
  for (size_t R : S.P9Reactions)
    EXPECT_DOUBLE_EQ(P.RateConstants[R],
                     S.Net.reaction(R).RateConstant * 10.0);
}

TEST(ParameterSpaceTest, GroupOverwriteSetsEveryMember) {
  AutophagySurrogate S = makeAutophagySurrogate(4, 3);
  ParameterSpace Space(S.Net);
  ParameterAxis Axis;
  Axis.Name = "p9";
  Axis.Target = AxisTarget::RateConstantGroup;
  Axis.Reactions = S.P9Reactions;
  Axis.Lo = 1e-9;
  Axis.Hi = 1e-3;
  Axis.LogScale = true;
  Space.addAxis(Axis);
  Parameterization P = Space.applyPoint({1e-5});
  for (size_t R : S.P9Reactions)
    EXPECT_DOUBLE_EQ(P.RateConstants[R], 1e-5);
}

//===----------------------------------------------------------------------===//
// BatchEngine.
//===----------------------------------------------------------------------===//

TEST(BatchEngineTest, SplitsIntoSubBatches) {
  EngineOptions Opts;
  Opts.SimulatorName = "psg-engine";
  Opts.SubBatchSize = 8;
  Opts.EndTime = 2.0;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  ReactionNetwork Net = makeDecayChainNetwork(4, 1.0);
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "S0", 0.5, 2.0));
  auto Points = Space.gridSample({20});
  EngineReport Report = Engine.run(Space, Points);
  EXPECT_EQ(Report.Outcomes.size(), 20u);
  EXPECT_EQ(Report.SubBatches, 3u); // 8 + 8 + 4.
  EXPECT_EQ(Report.Failures, 0u);
}

TEST(BatchEngineTest, OutcomeOrderMatchesPointOrder) {
  EngineOptions Opts;
  Opts.SimulatorName = "cpu-lsoda";
  Opts.SubBatchSize = 4;
  Opts.EndTime = 1.0;
  Opts.OutputSamples = 2;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "S0", 1.0, 10.0));
  auto Points = Space.gridSample({10});
  EngineReport Report = Engine.run(Space, Points);
  ASSERT_EQ(Report.Outcomes.size(), 10u);
  for (size_t I = 0; I < 10; ++I)
    EXPECT_NEAR(Report.Outcomes[I].Dynamics.value(0, 0), Points[I][0],
                1e-12);
}

TEST(BatchEngineTest, EmptyRunsReturnEmptyReports) {
  // No points and no parameterizations are a valid, empty run.
  ReactionNetwork Net = makeDecayChainNetwork(4, 1.0);
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "S0", 0.5, 2.0));
  auto expectEmpty = [](const EngineReport &Report, const std::string &Row) {
    EXPECT_TRUE(Report.Outcomes.empty()) << Row;
    EXPECT_EQ(Report.SubBatches, 0u) << Row;
    EXPECT_EQ(Report.Failures, 0u) << Row;
  };
  EngineOptions Opts;
  Opts.SimulatorName = "psg-engine";
  Opts.EndTime = 1.0;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  expectEmpty(Engine.run(Space, {}), "points");
  expectEmpty(Engine.runParameterizations(Net, {}), "params");
}

TEST(BatchEngineTest, InvalidWindowFailsWithoutIntegrating) {
  // A window the simulators cannot integrate fails every simulation with
  // status Aborted before any probe, step or reroute, on every
  // personality.
  ReactionNetwork Net = makeBrusselatorNetwork();
  struct Window {
    const char *Name;
    double StartTime, EndTime;
    size_t OutputSamples;
  };
  const Window Rows[] = {
      {"reversed", 1.0, 0.0, 11},
      {"NaN end", 0.0, std::nan(""), 0},
      {"one sample", 0.0, 1.0, 1},
  };
  Counter &Reroutes = metrics().counter("psg.engine.stiffness_reroutes");
  for (const Window &W : Rows)
    for (const std::string &Name : simulatorNames()) {
      EngineOptions Opts;
      Opts.SimulatorName = Name;
      Opts.StartTime = W.StartTime;
      Opts.EndTime = W.EndTime;
      Opts.OutputSamples = W.OutputSamples;
      BatchEngine Engine(CostModel::paperSetup(), Opts);
      std::vector<Parameterization> Params(4);
      for (Parameterization &P : Params) {
        P.InitialState = Net.initialState();
        for (size_t R = 0; R < Net.numReactions(); ++R)
          P.RateConstants.push_back(Net.reaction(R).RateConstant);
      }
      const std::string Row = std::string(W.Name) + " on " + Name;
      const uint64_t ReroutesBefore = Reroutes.value();
      const EngineReport Report =
          Engine.runParameterizations(Net, std::move(Params));
      EXPECT_EQ(Reroutes.value(), ReroutesBefore) << Row;
      ASSERT_EQ(Report.Outcomes.size(), 4u) << Row;
      EXPECT_EQ(Report.Failures, 4u) << Row;
      EXPECT_EQ(Report.TotalStats.Steps, 0u) << Row;
      for (const SimulationOutcome &O : Report.Outcomes) {
        EXPECT_EQ(O.Result.Status, IntegrationStatus::Aborted) << Row;
        EXPECT_EQ(O.Result.Stats.Steps, 0u) << Row;
        EXPECT_EQ(O.Result.Stats.RhsEvaluations, 0u) << Row;
        EXPECT_FALSE(O.Result.Detail.empty()) << Row;
      }
    }
}

TEST(BatchEngineTest, ThroughputAndTimesAreReported) {
  EngineOptions Opts;
  Opts.SimulatorName = "psg-engine";
  Opts.EndTime = 1.0;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  ReactionNetwork Net = makeDecayChainNetwork(4, 1.0);
  std::vector<Parameterization> Params;
  for (int I = 0; I < 6; ++I) {
    Parameterization P;
    P.InitialState = Net.initialState();
    for (size_t R = 0; R < Net.numReactions(); ++R)
      P.RateConstants.push_back(Net.reaction(R).RateConstant);
    Params.push_back(std::move(P));
  }
  EngineReport Report = Engine.runParameterizations(Net, std::move(Params));
  EXPECT_GT(Report.SimulationTime.total(), 0.0);
  EXPECT_GT(Report.modeledThroughputPerHour(), 0.0);
  EXPECT_GT(Report.HostWallSeconds, 0.0);
}
