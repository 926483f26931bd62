//===- tests/sim_test.cpp - Simulator personality tests -------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "sim/Oracle.h"
#include "sim/Simulators.h"
#include "sim/WorkProfile.h"

#include "rbm/CuratedModels.h"
#include "rbm/SyntheticGenerator.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

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

TEST(SimulatorTest, GpuBatchIsOnePoolJob) {
  // A GPU personality runs a whole batch as one ThreadPool::parallelFor,
  // one task per simulation; the CPU personalities never touch a pool.
  CostModel M = CostModel::paperSetup();
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  Counter &Jobs = metrics().counter("psg.vgpu.pool.jobs");
  Counter &Tasks = metrics().counter("psg.vgpu.pool.tasks");
  for (const std::unique_ptr<Simulator> &Sim : createAllSimulators(M)) {
    const bool Pooled = Sim->backend() != Backend::CpuSerial;
    const uint64_t JobsBefore = Jobs.value();
    const uint64_t TasksBefore = Tasks.value();
    const BatchResult R = Sim->run(specFor(Net, 6, 2.0));
    EXPECT_EQ(R.Failures, 0u) << Sim->name();
    EXPECT_EQ(Jobs.value() - JobsBefore, Pooled ? 1u : 0u) << Sim->name();
    EXPECT_EQ(Tasks.value() - TasksBefore, Pooled ? 6u : 0u) << Sim->name();
  }
}

TEST(OutcomeDigestTest, PersonalitiesKeepTheirOutcomeBits) {
  // Committed outcome digests (sim/Oracle.h) of direct Simulator::run
  // calls, one per model and personality (columns in simulatorNames()
  // order): 24 parameterizations (the defaults, then perturbRateConstants
  // draws from Rng(7)), 11 samples, default solver options. Every build
  // type and sanitizer leg must give these bits; a leg that differs is a
  // finding to explain, never a reason for a second table. A change that
  // alters outcome bits on purpose updates the constants and names the
  // changed rows in CHANGES.md. cpu-vode fails all 24 Robertson runs on
  // its step budget (DESIGN, Simplifications), and its digest pins that.
  struct Row {
    const char *Model;
    ReactionNetwork Net;
    double EndTime;
    uint64_t Digests[5];
  };
  const Row Rows[] = {
      {"robertson",
       makeRobertsonNetwork(),
       10.0,
       {0xa3f630a1ceb38cd6ull, 0x6657fd174d24e14dull, 0xa3f630a1ceb38cd6ull,
        0xfa8febd043109780ull, 0x1ac9f07dc274fd92ull}},
      {"brusselator",
       makeBrusselatorNetwork(),
       10.0,
       {0xc724fe208a2c916aull, 0xae21f5d2dc864e1dull, 0xc724fe208a2c916aull,
        0xb7f756440495b85bull, 0x2b32fbf43356342bull}},
      {"repressilator",
       makeRepressilatorNetwork(),
       20.0,
       {0x6a037927723d7261ull, 0x1b38062f29ea2b56ull, 0x6a037927723d7261ull,
        0xc58ccc36f72df101ull, 0x52c08416b89b4c7dull}},
      {"decay-chain-12",
       makeDecayChainNetwork(12, 4.0),
       5.0,
       {0xe9ada9fafbaf792eull, 0x9760023f9e115cfaull, 0xe9ada9fafbaf792eull,
        0x49b07a40a7b02662ull, 0x841d81c7b4d878dcull}},
      {"metabolic",
       makeMetabolicSurrogate().Net,
       5.0,
       {0x2c8047e7cb2e3883ull, 0x7ea134be071e3a83ull, 0x2c8047e7cb2e3883ull,
        0x24d33fa1d8f7bda1ull, 0xaf3e645b48c74858ull}},
      {"autophagy-16",
       makeAutophagySurrogate(16, 8).Net,
       20.0,
       {0x34fa2865ee3c0e9cull, 0xaf220a3a2f02dd1full, 0x34fa2865ee3c0e9cull,
        0x27673e44e70bc097ull, 0x2a2df97d94ef46d0ull}},
  };
  const std::vector<std::string> Names = simulatorNames();
  ASSERT_EQ(Names.size(), std::size(Rows[0].Digests));
  CostModel M = CostModel::paperSetup();
  for (const Row &R : Rows) {
    BatchSpec Spec;
    Spec.Model = &R.Net;
    Spec.Batch = 24;
    Spec.EndTime = R.EndTime;
    Spec.OutputSamples = 11;
    Rng Gen(7);
    for (uint64_t I = 0; I < Spec.Batch; ++I) {
      std::vector<double> Rates;
      for (const Reaction &Rx : R.Net.allReactions())
        Rates.push_back(Rx.RateConstant);
      if (I > 0)
        perturbRateConstants(Rates, Gen);
      Spec.RateConstantSets.push_back(std::move(Rates));
    }
    for (size_t P = 0; P < Names.size(); ++P) {
      auto Sim = createSimulator(Names[P], M);
      ASSERT_TRUE(Sim.ok()) << Names[P];
      const std::vector<SimulationOutcome> Outcomes =
          (*Sim)->run(Spec).Outcomes;
      const uint64_t Digest = outcomeDigest(Outcomes);
      EXPECT_EQ(formatString("0x%016llx", (unsigned long long)Digest),
                formatString("0x%016llx", (unsigned long long)R.Digests[P]))
          << Names[P] << " on " << R.Model;
      // Folding a stream's sub-batches in order gives the same digest.
      const std::vector<SimulationOutcome> Head(Outcomes.begin(),
                                                Outcomes.begin() + 10);
      const std::vector<SimulationOutcome> Tail(Outcomes.begin() + 10,
                                                Outcomes.end());
      EXPECT_EQ(outcomeDigest(Tail, outcomeDigest(Head)), Digest)
          << Names[P] << " on " << R.Model;
    }
  }
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
