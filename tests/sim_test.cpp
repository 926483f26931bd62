//===- tests/sim_test.cpp - Simulator personality tests -------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulators.h"
#include "sim/WorkProfile.h"

#include "rbm/CuratedModels.h"
#include "rbm/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace psg;

namespace {
BatchSpec specFor(const ReactionNetwork &Net, uint64_t Batch,
                  double EndTime = 5.0, size_t Samples = 0) {
  BatchSpec Spec;
  Spec.Model = &Net;
  Spec.Batch = Batch;
  Spec.EndTime = EndTime;
  Spec.OutputSamples = Samples;
  // cpu-vode's start-time heuristic grinds Robertson on Adams; the large
  // budget keeps that authentic behavior a success rather than a failure.
  Spec.Options.MaxSteps = 500000;
  return Spec;
}
} // namespace

TEST(SimulatorFactoryTest, AllPersonalitiesConstruct) {
  // The paper's five comparators, in the order of its maps and tables.
  CostModel M = CostModel::paperSetup();
  auto All = createAllSimulators(M);
  const std::pair<const char *, Backend> Expected[] = {
      {"cpu-lsoda", Backend::CpuSerial},
      {"cpu-vode", Backend::CpuSerial},
      {"gpu-coarse", Backend::GpuCoarse},
      {"gpu-fine", Backend::GpuFine},
      {"psg-engine", Backend::GpuFineCoarse},
  };
  ASSERT_EQ(All.size(), std::size(Expected));
  for (size_t I = 0; I < All.size(); ++I) {
    EXPECT_EQ(All[I]->name(), Expected[I].first) << I;
    EXPECT_EQ(All[I]->backend(), Expected[I].second) << I;
  }
}

TEST(SimulatorFactoryTest, CreateByNameMatchesCreateAll) {
  CostModel M = CostModel::paperSetup();
  const std::vector<std::string> Names = simulatorNames();
  auto All = createAllSimulators(M);
  ASSERT_EQ(All.size(), Names.size());
  for (size_t I = 0; I < Names.size(); ++I) {
    EXPECT_TRUE(checkSimulatorName(Names[I]).ok()) << Names[I];
    auto Sim = createSimulator(Names[I], M);
    ASSERT_TRUE(Sim.ok()) << Names[I];
    EXPECT_EQ((*Sim)->name(), Names[I]);
    EXPECT_EQ((*Sim)->name(), All[I]->name());
    EXPECT_EQ((*Sim)->backend(), All[I]->backend()) << Names[I];
  }
}

TEST(SimulatorFactoryTest, UnknownNameFails) {
  CostModel M = CostModel::paperSetup();
  auto Sim = createSimulator("warp-drive", M);
  ASSERT_FALSE(Sim.ok());
  EXPECT_EQ(Sim.message(),
            "unknown simulator 'warp-drive' (known: cpu-lsoda, cpu-vode, "
            "gpu-coarse, gpu-fine, psg-engine)");
  EXPECT_EQ(checkSimulatorName("warp-drive").message(), Sim.message());
}

class AllSimulatorsTest : public ::testing::TestWithParam<const char *> {};

TEST_P(AllSimulatorsTest, RunsBatchToCompletion) {
  CostModel M = CostModel::paperSetup();
  auto Sim = createSimulator(GetParam(), M);
  ASSERT_TRUE(Sim.ok());
  ReactionNetwork Net = makeRobertsonNetwork();
  BatchSpec Spec = specFor(Net, 4, 40.0);
  BatchResult R = (*Sim)->run(Spec);
  EXPECT_EQ(R.Outcomes.size(), 4u);
  EXPECT_EQ(R.Failures, 0u) << GetParam();
  EXPECT_DOUBLE_EQ(R.successRate(), 1.0);
  EXPECT_GT(R.TotalStats.Steps, 0u);
  EXPECT_GT(R.SimulationTime.total(), 0.0);
  EXPECT_GE(R.SimulationTime.total(), R.IntegrationTime.total());
}

TEST_P(AllSimulatorsTest, ProducesCorrectRobertsonEndState) {
  CostModel M = CostModel::paperSetup();
  auto Sim = createSimulator(GetParam(), M);
  ReactionNetwork Net = makeRobertsonNetwork();
  BatchSpec Spec = specFor(Net, 1, 40.0, 11);
  BatchResult R = (*Sim)->run(Spec);
  ASSERT_EQ(R.Failures, 0u);
  const Trajectory &T = R.Outcomes[0].Dynamics;
  ASSERT_EQ(T.numSamples(), 11u);
  EXPECT_NEAR(T.value(10, 0), 0.7158270688, 2e-4) << GetParam();
  EXPECT_NEAR(T.value(10, 2), 0.2841637457, 2e-4) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Personalities, AllSimulatorsTest,
                         ::testing::Values("cpu-lsoda", "cpu-vode",
                                           "gpu-coarse", "gpu-fine",
                                           "psg-engine"));

TEST(SimulatorTest, PerSimulationParameterizationsApply) {
  CostModel M = CostModel::paperSetup();
  FineCoarseSimulator Sim(M);
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  BatchSpec Spec = specFor(Net, 2, 1.0, 5);
  // Simulation 0 keeps defaults; simulation 1 gets a 10x faster chain.
  std::vector<double> Fast;
  for (size_t R = 0; R < Net.numReactions(); ++R)
    Fast.push_back(Net.reaction(R).RateConstant * 10.0);
  Spec.RateConstantSets.push_back({});
  for (size_t R = 0; R < Net.numReactions(); ++R)
    Spec.RateConstantSets[0].push_back(Net.reaction(R).RateConstant);
  Spec.RateConstantSets.push_back(Fast);
  BatchResult Result = Sim.run(Spec);
  ASSERT_EQ(Result.Failures, 0u);
  // The faster chain drains species 0 further.
  const double Slow0 = Result.Outcomes[0].Dynamics.value(4, 0);
  const double Fast0 = Result.Outcomes[1].Dynamics.value(4, 0);
  EXPECT_LT(Fast0, Slow0);
}

TEST(SimulatorTest, PerSimulationInitialStatesApply) {
  CostModel M = CostModel::paperSetup();
  CoarseGpuSimulator Sim(M);
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  BatchSpec Spec = specFor(Net, 2, 0.5, 3);
  Spec.InitialStates.push_back({1.0, 0.0, 0.0});
  Spec.InitialStates.push_back({5.0, 0.0, 0.0});
  BatchResult Result = Sim.run(Spec);
  ASSERT_EQ(Result.Failures, 0u);
  EXPECT_NEAR(Result.Outcomes[1].Dynamics.value(0, 0), 5.0, 1e-12);
  EXPECT_GT(Result.Outcomes[1].Dynamics.value(2, 0),
            Result.Outcomes[0].Dynamics.value(2, 0));
}

TEST(SimulatorTest, EngineRoutesStiffModelsToRadau) {
  CostModel M = CostModel::paperSetup();
  FineCoarseSimulator Sim(M);
  ReactionNetwork Net = makeRobertsonNetwork();
  // Robertson's initial Jacobian is mild; after the transient it is
  // stiff. DOPRI5's stiffness detection fires and the engine re-routes,
  // so the simulation must end on radau5 either way.
  BatchSpec Spec = specFor(Net, 1, 40.0);
  BatchResult R = Sim.run(Spec);
  ASSERT_EQ(R.Failures, 0u);
  EXPECT_EQ(R.Outcomes[0].SolverUsed, "radau5");
}

TEST(SimulatorTest, EngineRoutesNonStiffModelsToDopri) {
  CostModel M = CostModel::paperSetup();
  FineCoarseSimulator Sim(M);
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  BatchSpec Spec = specFor(Net, 1, 10.0);
  BatchResult R = Sim.run(Spec);
  ASSERT_EQ(R.Failures, 0u);
  EXPECT_EQ(R.Outcomes[0].SolverUsed, "dopri5");
}

TEST(SimulatorTest, ForcedMethodAblationControlsRouting) {
  CostModel M = CostModel::paperSetup();
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  BatchSpec Spec = specFor(Net, 1, 10.0);
  FineCoarseSimulator Radau(M);
  Radau.ForcedMethod = "radau5";
  EXPECT_EQ(Radau.run(Spec).Outcomes[0].SolverUsed, "radau5");
  FineCoarseSimulator Dopri(M);
  Dopri.ForcedMethod = "dopri5";
  EXPECT_EQ(Dopri.run(Spec).Outcomes[0].SolverUsed, "dopri5");
}

TEST(SimulatorTest, StiffnessThresholdIsTunable) {
  CostModel M = CostModel::paperSetup();
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  BatchSpec Spec = specFor(Net, 1, 10.0);
  FineCoarseSimulator Paranoid(M);
  Paranoid.StiffnessThreshold = 1e-9; // Everything looks stiff.
  EXPECT_EQ(Paranoid.run(Spec).Outcomes[0].SolverUsed, "radau5");
}

TEST(SimulatorTest, PersonalitiesAgreeNumerically) {
  CostModel M = CostModel::paperSetup();
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  std::vector<double> Finals;
  for (const char *Name :
       {"cpu-lsoda", "cpu-vode", "gpu-coarse", "gpu-fine", "psg-engine"}) {
    auto Sim = createSimulator(Name, M);
    BatchSpec Spec = specFor(Net, 1, 8.0, 3);
    BatchResult R = (*Sim)->run(Spec);
    ASSERT_EQ(R.Failures, 0u) << Name;
    Finals.push_back(R.Outcomes[0].Dynamics.value(2, 0));
  }
  for (size_t I = 1; I < Finals.size(); ++I)
    EXPECT_NEAR(Finals[I], Finals[0],
                2e-3 * (1.0 + std::abs(Finals[0])));
}

//===----------------------------------------------------------------------===//
// Work profiling.
//===----------------------------------------------------------------------===//

TEST(WorkProfileTest, FieldsArePositiveAndScale) {
  SyntheticModelOptions GSmall, GLarge;
  GSmall.NumSpecies = GSmall.NumReactions = 16;
  GLarge.NumSpecies = GLarge.NumReactions = 128;
  CompiledOdeSystem Small(generateSyntheticModel(GSmall));
  CompiledOdeSystem Large(generateSyntheticModel(GLarge));
  IntegrationStats Stats;
  Stats.Steps = 100;
  Stats.RhsEvaluations = 600;
  Stats.JacobianEvaluations = 10;
  Stats.LuFactorizations = 10;
  Stats.ComplexLuFactorizations = 10;
  Stats.LuSolves = 50;
  SimulationWork WS = computeSimulationWork(Small, Stats, 1, 16);
  SimulationWork WL = computeSimulationWork(Large, Stats, 1, 16);
  EXPECT_GT(WS.TotalFlops, 0.0);
  EXPECT_GT(WS.MemTrafficBytes, 0.0);
  EXPECT_GT(WL.TotalFlops, WS.TotalFlops);
  EXPECT_GT(WL.StateBytes, WS.StateBytes);
  EXPECT_EQ(WS.NumSpecies, 16u);
  EXPECT_EQ(WL.NumReactions, 128u);
  EXPECT_EQ(WS.OutputSamples, 16u);
}

TEST(WorkProfileTest, BatchAveragingDividesPerSimWork) {
  ReactionNetwork Net = makeRobertsonNetwork();
  CompiledOdeSystem Sys(Net);
  IntegrationStats Stats;
  Stats.Steps = 1000;
  Stats.RhsEvaluations = 6000;
  SimulationWork W1 = computeSimulationWork(Sys, Stats, 1, 0);
  SimulationWork W10 = computeSimulationWork(Sys, Stats, 10, 0);
  EXPECT_NEAR(W1.TotalFlops / 10.0, W10.TotalFlops, 1e-9 * W1.TotalFlops);
  EXPECT_EQ(W10.Steps, 100u);
}

TEST(SimulatorTest, FailuresAreCountedAndRecoverable) {
  CostModel M = CostModel::paperSetup();
  CpuSolverSimulator Sim("lsoda", "cpu-lsoda", M);
  ReactionNetwork Net = makeRobertsonNetwork();
  BatchSpec Spec = specFor(Net, 2, 40.0);
  Spec.Options.MaxSteps = 5; // Guaranteed to run out of budget.
  BatchResult R = Sim.run(Spec);
  EXPECT_EQ(R.Failures, 2u);
  EXPECT_DOUBLE_EQ(R.successRate(), 0.0);
  for (const SimulationOutcome &O : R.Outcomes)
    EXPECT_EQ(O.Result.Status, IntegrationStatus::MaxStepsExceeded);
}
