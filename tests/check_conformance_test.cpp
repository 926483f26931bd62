//===- tests/check_conformance_test.cpp - psg::check conformance ----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Conformance tests (ctest label: conformance): the golden library, the
// Richardson reference driver, empirical convergence orders of the
// fixed-order solvers, the tolerance-scaling ladder, warm/cold dispatch
// invariance, and the case-file round trip.
//
//===----------------------------------------------------------------------===//

#include "check/CaseFile.h"
#include "check/Golden.h"
#include "check/OrderProbe.h"
#include "check/Properties.h"
#include "ode/Richardson.h"
#include "ode/SolverRegistry.h"
#include "rbm/CuratedModels.h"
#include "rbm/SyntheticGenerator.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace psg;

TEST(GoldenLibraryTest, EveryEntryHasAReference) {
  const std::vector<GoldenProblem> Library = goldenLibrary();
  ASSERT_GE(Library.size(), 5u);
  size_t OrderProbes = 0;
  for (const GoldenProblem &G : Library) {
    const std::vector<double> Reference = goldenEndReference(G);
    ASSERT_EQ(Reference.size(), G.Problem.System->dimension()) << G.Name;
    for (double V : Reference)
      EXPECT_TRUE(std::isfinite(V)) << G.Name;
    if (G.UsableForOrderProbe) {
      ++OrderProbes;
      ASSERT_TRUE(G.Problem.Exact) << G.Name;
      // Order-probe entries must be self-consistent: the closed form at
      // the end time IS the reference.
      const std::vector<double> AtEnd = G.Problem.Exact(G.Problem.EndTime);
      EXPECT_LT(mixedRelativeError(AtEnd, Reference), 1e-12) << G.Name;
    }
  }
  EXPECT_GE(OrderProbes, 3u);
}

TEST(GoldenLibraryTest, LookupByNameWorksAndFailsHelpfully) {
  auto Found = goldenProblem("logistic");
  ASSERT_TRUE(Found);
  EXPECT_TRUE(Found->UsableForOrderProbe);

  // The harmonic oscillator is in the library for accuracy checks but
  // excluded from order probes: 5th-order methods show their (small-
  // coefficient) h^6 error term on pure oscillators, not h^5.
  auto Harmonic = goldenProblem("harmonic");
  ASSERT_TRUE(Harmonic);
  EXPECT_FALSE(Harmonic->UsableForOrderProbe);

  auto Missing = goldenProblem("no-such-problem");
  ASSERT_FALSE(Missing);
  // The failure lists the known names so typos are self-diagnosing.
  EXPECT_NE(Missing.message().find("harmonic"), std::string::npos);
}

TEST(RichardsonTest, MatchesClosedFormsTightly) {
  for (const GoldenProblem &G : goldenLibrary()) {
    if (!G.UsableForOrderProbe)
      continue;
    RichardsonReference Ref = richardsonReference(
        *G.Problem.System, G.Problem.StartTime, G.Problem.EndTime,
        G.Problem.InitialState);
    ASSERT_TRUE(Ref.Converged) << G.Name;
    EXPECT_LT(mixedRelativeError(Ref.FinalState,
                                 G.Problem.Exact(G.Problem.EndTime)),
              1e-8)
        << G.Name;
  }
}

TEST(RichardsonTest, HitsGridPointsExactly) {
  const GoldenProblem G = *goldenProblem("exp-decay");
  const std::vector<double> Grid =
      uniformGrid(G.Problem.StartTime, G.Problem.EndTime, 9);
  RichardsonReference Ref =
      richardsonReference(*G.Problem.System, G.Problem.StartTime,
                          G.Problem.EndTime, G.Problem.InitialState,
                          RichardsonOptions(), &Grid);
  ASSERT_TRUE(Ref.Converged);
  ASSERT_EQ(Ref.Dynamics.numSamples(), Grid.size());
  for (size_t S = 0; S < Grid.size(); ++S) {
    EXPECT_DOUBLE_EQ(Ref.Dynamics.time(S), Grid[S]);
    const std::vector<double> Exact = G.Problem.Exact(Grid[S]);
    EXPECT_NEAR(Ref.Dynamics.value(S, 0), Exact[0], 1e-9);
  }
}

TEST(RichardsonTest, SurvivesStiffSystems) {
  // RK4 is unstable on the split-eigenvalue system until h clears the
  // stability bound; the driver must discard those passes and converge.
  const TestProblem P = makeLinearStiff(/*Lambda=*/1e3);
  RichardsonOptions Opts;
  RichardsonReference Ref = richardsonReference(
      *P.System, P.StartTime, P.EndTime, P.InitialState, Opts);
  ASSERT_TRUE(Ref.Converged);
  EXPECT_LT(mixedRelativeError(Ref.FinalState, P.Exact(P.EndTime)), 1e-7);
}

// The tentpole acceptance check: every fixed-order solver's measured
// convergence order matches theory within +-0.4 on the golden library.
TEST(OrderProbeTest, MeasuredOrdersMatchTheory) {
  for (const char *Name : {"rk4", "rkf45", "dopri5", "radau5"}) {
    auto EstimatesOr = measureConvergenceOrders(Name);
    ASSERT_TRUE(EstimatesOr) << Name << ": " << EstimatesOr.message();
    const double Median = medianMeasuredOrder(*EstimatesOr);
    EXPECT_NEAR(Median, theoreticalOrder(Name), 0.4)
        << Name << " measured order " << Median;
  }
}

TEST(OrderProbeTest, VariableOrderSolversAreExcluded) {
  for (const char *Name : {"adams", "bdf", "lsoda", "vode"})
    EXPECT_EQ(theoreticalOrder(Name), 0.0) << Name;
  const GoldenProblem G = *goldenProblem("harmonic");
  EXPECT_FALSE(measureConvergenceOrder("lsoda", G));
}

TEST(PropertiesTest, TighteningToleranceReducesError) {
  for (const GoldenProblem &G : goldenLibrary()) {
    if (!G.UsableForOrderProbe)
      continue;
    for (const char *Name : {"rkf45", "dopri5", "radau5", "lsoda"}) {
      auto LadderOr = checkToleranceScaling(Name, G);
      ASSERT_TRUE(LadderOr)
          << Name << " on " << G.Name << ": " << LadderOr.message();
      // End to end the ladder must actually buy accuracy, not just
      // avoid regressing rung to rung.
      EXPECT_LT(LadderOr->Errors.back(),
                LadderOr->Errors.front() + 1e-12)
          << Name << " on " << G.Name;
    }
  }
}

TEST(PropertiesTest, WarmAndColdDispatchAreBitExact) {
  Status S = checkWarmColdInvarianceAllPersonalities();
  EXPECT_TRUE(S.ok()) << S.message();
}

TEST(CaseFileTest, RoundTripsThroughTextAndDisk) {
  RandomRbmOptions Gen;
  Gen.Seed = 42;
  CheckCase Case;
  Case.Model = generateRandomRbm(Gen);
  Case.Seed = 42;
  Case.StartTime = 0.0;
  Case.EndTime = 3.25;
  Case.OutputSamples = 9;
  Case.Options.AbsTol = 1e-9;
  Case.Options.RelTol = 1e-6;
  Case.Options.MaxSteps = 123456;
  Case.Simulator = "gpu-fine";
  Case.Detail = "worst mixed-relative sample error 0.5 exceeds 0.005";

  auto ParsedOr = parseCaseText(writeCaseText(Case));
  ASSERT_TRUE(ParsedOr) << ParsedOr.message();
  const CheckCase &Parsed = *ParsedOr;
  EXPECT_EQ(Parsed.Seed, Case.Seed);
  EXPECT_DOUBLE_EQ(Parsed.StartTime, Case.StartTime);
  EXPECT_DOUBLE_EQ(Parsed.EndTime, Case.EndTime);
  EXPECT_EQ(Parsed.OutputSamples, Case.OutputSamples);
  EXPECT_DOUBLE_EQ(Parsed.Options.AbsTol, Case.Options.AbsTol);
  EXPECT_DOUBLE_EQ(Parsed.Options.RelTol, Case.Options.RelTol);
  EXPECT_EQ(Parsed.Options.MaxSteps, Case.Options.MaxSteps);
  EXPECT_EQ(Parsed.Simulator, Case.Simulator);
  EXPECT_EQ(Parsed.Detail, Case.Detail);
  EXPECT_EQ(Parsed.Model.numSpecies(), Case.Model.numSpecies());
  EXPECT_EQ(Parsed.Model.numReactions(), Case.Model.numReactions());
  // The model must round-trip numerically, not just structurally: the
  // rate constants parameterize the replayed integration.
  for (size_t R = 0; R < Case.Model.numReactions(); ++R)
    EXPECT_DOUBLE_EQ(Parsed.Model.reaction(R).RateConstant,
                     Case.Model.reaction(R).RateConstant)
        << "reaction " << R;
  for (size_t I = 0; I < Case.Model.numSpecies(); ++I)
    EXPECT_DOUBLE_EQ(Parsed.Model.species(I).InitialConcentration,
                     Case.Model.species(I).InitialConcentration)
        << "species " << I;

  const std::string Path =
      testing::TempDir() + "/check_case_roundtrip.psg";
  ASSERT_TRUE(saveCaseFile(Case, Path).ok());
  auto LoadedOr = loadCaseFile(Path);
  ASSERT_TRUE(LoadedOr) << LoadedOr.message();
  EXPECT_EQ(LoadedOr->Seed, Case.Seed);
  EXPECT_EQ(LoadedOr->Simulator, Case.Simulator);
}

TEST(CaseFileTest, RejectsMalformedMetadata) {
  EXPECT_FALSE(parseCaseText("model m\nspecies A 1\n")); // No seed line.
  EXPECT_FALSE(parseCaseText("check seed 1\ncheck window 0\nmodel m\n"));
  EXPECT_FALSE(parseCaseText("check seed 1\ncheck bogus 2\nmodel m\n"));

  // Metadata replay cannot run must fail the load: a window that is not
  // finite with t0 < tend, tolerances that are not finite and above 0,
  // and seeds or step budgets that are not unsigned 64-bit integers
  // (step budgets at least 1).
  const std::string Model = "model m\nspecies A 1\nreaction 1 : A -> 0\n";
  const std::pair<const char *, const char *> Cases[] = {
      {"window 1 0", "window needs finite t0 < tend"},
      {"window 0 0", "window needs finite t0 < tend"},
      {"window 0 nan", "window needs finite t0 < tend"},
      {"window 0 inf", "window needs finite t0 < tend"},
      {"window -inf 1", "window needs finite t0 < tend"},
      {"tolerances nan 1e-6", "tolerances must be finite and above 0"},
      {"tolerances 1e-9 inf", "tolerances must be finite and above 0"},
      {"tolerances 0 0", "tolerances must be finite and above 0"},
      {"tolerances -1 -1", "tolerances must be finite and above 0"},
      {"maxsteps abc", "expected 'check maxsteps <n>'"},
      {"maxsteps 0", "expected 'check maxsteps <n>'"},
      {"maxsteps -5", "expected 'check maxsteps <n>'"},
      {"maxsteps 18446744073709551616", "expected 'check maxsteps <n>'"},
      {"seed abc", "expected 'check seed <n>'"},
      {"seed -1", "expected 'check seed <n>'"},
      {"seed 18446744073709551616", "expected 'check seed <n>'"},
  };
  for (const auto &[Line, Message] : Cases) {
    const std::string Text = "check seed 1\ncheck " + std::string(Line) + "\n";
    auto CaseOr = parseCaseText(Text + Model);
    ASSERT_FALSE(CaseOr) << Line;
    EXPECT_NE(CaseOr.message().find(std::string("case line 2: ") + Message),
              std::string::npos)
        << CaseOr.message();
  }

  // Full 64-bit seeds and step budgets still load.
  const std::string Wide = "check seed 18446744073709551615\n"
                           "check maxsteps 18446744073709551615\n";
  auto WideOr = parseCaseText(Wide + Model);
  ASSERT_TRUE(WideOr) << WideOr.message();
  EXPECT_EQ(WideOr->Seed, 18446744073709551615ull);
  EXPECT_EQ(WideOr->Options.MaxSteps, 18446744073709551615ull);
}
