//===- tests/rbm_test.cpp - Reaction-network layer tests ------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "rbm/CuratedModels.h"
#include "rbm/MassAction.h"
#include "rbm/ModelIo.h"
#include "rbm/SbmlIo.h"
#include "rbm/ReactionNetwork.h"
#include "rbm/SyntheticGenerator.h"

#include "linalg/Jacobian.h"
#include "ode/SolverRegistry.h"
#include "ode/TestProblems.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace psg;

//===----------------------------------------------------------------------===//
// Network construction and validation.
//===----------------------------------------------------------------------===//

TEST(ReactionNetworkTest, SpeciesLookup) {
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 1.0);
  const unsigned B = Net.addSpecies("B", 2.0);
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  ASSERT_TRUE(Net.findSpecies("B").ok());
  EXPECT_EQ(*Net.findSpecies("B"), 1u);
  EXPECT_FALSE(Net.findSpecies("C").ok());
}

TEST(ReactionNetworkTest, InitialStateMatchesSpecies) {
  ReactionNetwork Net("m");
  Net.addSpecies("A", 0.5);
  Net.addSpecies("B", 1.5);
  auto Y0 = Net.initialState();
  ASSERT_EQ(Y0.size(), 2u);
  EXPECT_DOUBLE_EQ(Y0[0], 0.5);
  EXPECT_DOUBLE_EQ(Y0[1], 1.5);
}

TEST(ReactionNetworkTest, StoichiometricMatrices) {
  // 2A + B -> 3C.
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 1);
  const unsigned B = Net.addSpecies("B", 1);
  const unsigned C = Net.addSpecies("C", 0);
  Reaction R;
  R.RateConstant = 1.0;
  R.Reactants = {{A, 2}, {B, 1}};
  R.Products = {{C, 3}};
  Net.addReaction(R);
  Matrix MA = Net.reactantMatrix();
  Matrix MB = Net.productMatrix();
  EXPECT_DOUBLE_EQ(MA(0, A), 2.0);
  EXPECT_DOUBLE_EQ(MA(0, B), 1.0);
  EXPECT_DOUBLE_EQ(MA(0, C), 0.0);
  EXPECT_DOUBLE_EQ(MB(0, C), 3.0);
}

TEST(ReactionNetworkTest, ValidateRejectsEmptyModel) {
  ReactionNetwork Net("m");
  EXPECT_FALSE(Net.validate().ok());
  Net.addSpecies("A", 1.0);
  EXPECT_FALSE(Net.validate().ok()); // Still no reactions.
}

TEST(ReactionNetworkTest, ValidateRejectsNegativeRate) {
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 1.0);
  Reaction R;
  R.RateConstant = -1.0;
  R.Reactants = {{A, 1}};
  Net.addReaction(R);
  EXPECT_FALSE(Net.validate().ok());
}

TEST(ReactionNetworkTest, ValidateRejectsNegativeInitial) {
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", -0.5);
  Reaction R;
  R.RateConstant = 1.0;
  R.Reactants = {{A, 1}};
  Net.addReaction(R);
  EXPECT_FALSE(Net.validate().ok());
}

TEST(ReactionNetworkTest, ValidateRejectsBadMichaelisMenten) {
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 1.0);
  Reaction R;
  R.Kind = KineticsKind::MichaelisMenten;
  R.RateConstant = 1.0;
  R.Km = 0.0; // Invalid.
  R.Reactants = {{A, 1}};
  Net.addReaction(R);
  EXPECT_FALSE(Net.validate().ok());
}

TEST(ReactionTest, OrderSumsCoefficients) {
  Reaction R;
  R.Reactants = {{0, 2}, {1, 1}};
  EXPECT_EQ(R.order(), 3u);
  Reaction Src;
  EXPECT_EQ(Src.order(), 0u);
}

//===----------------------------------------------------------------------===//
// Mass-action compilation: rhs values and analytic Jacobians.
//===----------------------------------------------------------------------===//

TEST(MassActionTest, FirstOrderRhs) {
  // A -> B with k = 2: dA/dt = -2A, dB/dt = +2A.
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 3.0);
  const unsigned B = Net.addSpecies("B", 0.0);
  Reaction R;
  R.RateConstant = 2.0;
  R.Reactants = {{A, 1}};
  R.Products = {{B, 1}};
  Net.addReaction(R);
  CompiledOdeSystem Sys(Net);
  double Y[2] = {3.0, 0.0};
  double D[2];
  Sys.rhs(0, Y, D);
  EXPECT_DOUBLE_EQ(D[A], -6.0);
  EXPECT_DOUBLE_EQ(D[B], 6.0);
}

TEST(MassActionTest, SecondOrderHomodimerRhs) {
  // 2A -> B with k = 0.5: dA/dt = -2*0.5*A^2, dB/dt = +0.5*A^2.
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 4.0);
  const unsigned B = Net.addSpecies("B", 0.0);
  Reaction R;
  R.RateConstant = 0.5;
  R.Reactants = {{A, 2}};
  R.Products = {{B, 1}};
  Net.addReaction(R);
  CompiledOdeSystem Sys(Net);
  double Y[2] = {4.0, 0.0};
  double D[2];
  Sys.rhs(0, Y, D);
  EXPECT_DOUBLE_EQ(D[A], -16.0);
  EXPECT_DOUBLE_EQ(D[B], 8.0);
}

TEST(MassActionTest, ZeroOrderSourceRhs) {
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 0.0);
  Reaction R;
  R.RateConstant = 1.5;
  R.Products = {{A, 1}};
  Net.addReaction(R);
  CompiledOdeSystem Sys(Net);
  double Y[1] = {10.0};
  double D[1];
  Sys.rhs(0, Y, D);
  EXPECT_DOUBLE_EQ(D[A], 1.5);
}

TEST(MassActionTest, CatalystCancelsInNetStoichiometry) {
  // A + E -> B + E: E's net coefficient is zero.
  ReactionNetwork Net("m");
  const unsigned A = Net.addSpecies("A", 1.0);
  const unsigned E = Net.addSpecies("E", 2.0);
  const unsigned B = Net.addSpecies("B", 0.0);
  Reaction R;
  R.RateConstant = 1.0;
  R.Reactants = {{A, 1}, {E, 1}};
  R.Products = {{B, 1}, {E, 1}};
  Net.addReaction(R);
  CompiledOdeSystem Sys(Net);
  double Y[3] = {1.0, 2.0, 0.0};
  double D[3];
  Sys.rhs(0, Y, D);
  EXPECT_DOUBLE_EQ(D[E], 0.0);
  EXPECT_DOUBLE_EQ(D[A], -2.0);
  EXPECT_DOUBLE_EQ(D[B], 2.0);
}

TEST(MassActionTest, MichaelisMentenSaturates) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  CompiledOdeSystem Sys(Net);
  // Rate of S->P at S = 2 with Vmax = 1, Km = 0.5: 2/(2.5) = 0.8.
  double Y[3] = {2.0, 0.0, 0.1};
  double D[3];
  Sys.rhs(0, Y, D);
  EXPECT_NEAR(D[0], -0.8, 1e-12);
  // At huge S the rate approaches Vmax.
  Y[0] = 1e9;
  Sys.rhs(0, Y, D);
  EXPECT_NEAR(D[0], -1.0, 1e-6);
}

TEST(MassActionTest, NegativeConcentrationsAreClampedInSaturatingRates) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  CompiledOdeSystem Sys(Net);
  double Y[3] = {-1e-9, 0.5, 0.1};
  double D[3];
  Sys.rhs(0, Y, D);
  EXPECT_TRUE(std::isfinite(D[0]));
  EXPECT_TRUE(std::isfinite(D[1]));
}

TEST(MassActionTest, RateConstantOverridesAndReset) {
  ReactionNetwork Net = makeRobertsonNetwork();
  CompiledOdeSystem Sys(Net);
  const double Original = Sys.rateConstant(0);
  Sys.setRateConstant(0, 99.0);
  EXPECT_DOUBLE_EQ(Sys.rateConstant(0), 99.0);
  Sys.resetRateConstants();
  EXPECT_DOUBLE_EQ(Sys.rateConstant(0), Original);
}

TEST(MassActionTest, ProfileCountsScaleWithModel) {
  SyntheticModelOptions Small, Large;
  Small.NumSpecies = Small.NumReactions = 16;
  Large.NumSpecies = Large.NumReactions = 128;
  CompiledOdeSystem SysS(generateSyntheticModel(Small));
  CompiledOdeSystem SysL(generateSyntheticModel(Large));
  EXPECT_GT(SysL.profile().RhsMultiplies, SysS.profile().RhsMultiplies);
  EXPECT_GT(SysL.profile().RhsAccumulates, SysS.profile().RhsAccumulates);
  EXPECT_GT(SysS.profile().RhsMultiplies, 0u);
}

/// Property: the analytic Jacobian matches finite differences across
/// kinetics mixes and random models.
class JacobianConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JacobianConsistencyTest, AnalyticMatchesFiniteDifferences) {
  SyntheticModelOptions G;
  G.NumSpecies = 10;
  G.NumReactions = 18;
  G.Seed = GetParam();
  ReactionNetwork Net = generateSyntheticModel(G);
  CompiledOdeSystem Sys(Net);
  std::vector<double> Y = Net.initialState();
  std::vector<double> F0(Y.size());
  Sys.rhs(0, Y.data(), F0.data());
  Matrix JA;
  Sys.analyticJacobian(0, Y.data(), JA);
  Matrix JN;
  RhsFunction F = [&](double T, const double *State, double *D) {
    Sys.rhs(T, State, D);
  };
  numericJacobian(F, 0, Y.data(), F0.data(), Y.size(), JN);
  for (size_t R = 0; R < JA.rows(); ++R)
    for (size_t C = 0; C < JA.cols(); ++C)
      EXPECT_NEAR(JA(R, C), JN(R, C), 1e-4 * (1.0 + std::abs(JA(R, C))))
          << "entry (" << R << "," << C << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, JacobianConsistencyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(JacobianConsistencyTest, SaturatingKineticsJacobian) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  CompiledOdeSystem Sys(Net);
  std::vector<double> Y = {1.7, 0.4, 0.2};
  std::vector<double> F0(3);
  Sys.rhs(0, Y.data(), F0.data());
  Matrix JA, JN;
  Sys.analyticJacobian(0, Y.data(), JA);
  RhsFunction F = [&](double T, const double *State, double *D) {
    Sys.rhs(T, State, D);
  };
  numericJacobian(F, 0, Y.data(), F0.data(), 3, JN);
  for (size_t R = 0; R < 3; ++R)
    for (size_t C = 0; C < 3; ++C)
      EXPECT_NEAR(JA(R, C), JN(R, C), 1e-5 * (1.0 + std::abs(JA(R, C))));
}

//===----------------------------------------------------------------------===//
// Model IO.
//===----------------------------------------------------------------------===//

TEST(ModelIoTest, ParsesMinimalModel) {
  auto Net = parseModelText("model tiny\n"
                            "species A 1.0\n"
                            "species B 0\n"
                            "reaction 2.5 : A -> B\n");
  ASSERT_TRUE(Net.ok()) << Net.message();
  EXPECT_EQ(Net->name(), "tiny");
  EXPECT_EQ(Net->numSpecies(), 2u);
  EXPECT_EQ(Net->numReactions(), 1u);
  EXPECT_DOUBLE_EQ(Net->reaction(0).RateConstant, 2.5);
}

TEST(ModelIoTest, ParsesCoefficientsAndEmptySides) {
  auto Net = parseModelText("model m\nspecies A 1\nspecies B 0\n"
                            "reaction 1 : 2 A -> 0\n"
                            "reaction 3 : 0 -> B\n");
  ASSERT_TRUE(Net.ok()) << Net.message();
  EXPECT_EQ(Net->reaction(0).Reactants[0].second, 2u);
  EXPECT_TRUE(Net->reaction(0).Products.empty());
  EXPECT_TRUE(Net->reaction(1).Reactants.empty());
}

TEST(ModelIoTest, ParsesSaturatingKinetics) {
  auto Net = parseModelText("model m\nspecies S 1\nspecies P 0\n"
                            "reaction mm 2.0 0.5 : S -> P\n"
                            "reaction hill 1.0 0.3 4 : P -> S\n");
  ASSERT_TRUE(Net.ok()) << Net.message();
  EXPECT_EQ(Net->reaction(0).Kind, KineticsKind::MichaelisMenten);
  EXPECT_DOUBLE_EQ(Net->reaction(0).Km, 0.5);
  EXPECT_EQ(Net->reaction(1).Kind, KineticsKind::Hill);
  EXPECT_DOUBLE_EQ(Net->reaction(1).HillN, 4.0);
}

TEST(ModelIoTest, CommentsAndBlankLinesIgnored) {
  auto Net = parseModelText("# a comment\n\nmodel m # trailing\n"
                            "species A 1 # note\n"
                            "reaction 1 : A -> 0\n");
  ASSERT_TRUE(Net.ok()) << Net.message();
  EXPECT_EQ(Net->numSpecies(), 1u);
}

TEST(ModelIoTest, ErrorsCarryLineNumbers) {
  auto Net = parseModelText("model m\nspecies A 1\nreaction oops\n");
  ASSERT_FALSE(Net.ok());
  EXPECT_NE(Net.message().find("line 3"), std::string::npos);
}

TEST(ModelIoTest, UnknownSpeciesIsAnError) {
  auto Net = parseModelText("model m\nspecies A 1\nreaction 1 : B -> A\n");
  ASSERT_FALSE(Net.ok());
  EXPECT_NE(Net.message().find("unknown species"), std::string::npos);
}

TEST(ModelIoTest, DuplicateSpeciesIsAnError) {
  auto Net = parseModelText("model m\nspecies A 1\nspecies A 2\n");
  EXPECT_FALSE(Net.ok());
}

// NaN compares false against every bound, so without an explicit
// finiteness check each of these models would load and run.
TEST(ModelIoTest, RejectsNonFiniteValues) {
  const std::pair<const char *, const char *> Cases[] = {
      {"species A nan\nspecies B 0\nreaction 1 : A -> B\n",
       "species 'A' has non-finite initial concentration nan"},
      {"species A 1\nspecies B 0\nreaction inf : A -> B\n",
       "reaction 0 has non-finite rate constant inf"},
      {"species S 1\nspecies P 0\nreaction mm 1.0 nan : S -> P\n",
       "reaction 0 needs a positive finite Km, got nan"},
      {"species S 1\nspecies P 0\nreaction hill 1.0 inf 2 : S -> P\n",
       "reaction 0 needs positive finite Hill K and n, got inf and 2"},
      {"species S 1\nspecies P 0\nreaction hill 1.0 0.5 nan : S -> P\n",
       "reaction 0 needs positive finite Hill K and n, got 0.5 and nan"},
  };
  for (const auto &[Text, Message] : Cases) {
    auto Net = parseModelText(std::string("model m\n") + Text);
    ASSERT_FALSE(Net.ok()) << Text;
    EXPECT_EQ(Net.message(), Message);
  }
}

TEST(ModelIoTest, SbmlRejectsNonFiniteInitialConcentration) {
  auto Net = parseSbml(
      "<sbml><model id=\"m\"><listOfSpecies>"
      "<species id=\"A\" initialConcentration=\"nan\"/></listOfSpecies>"
      "<listOfReactions><reaction id=\"r0\" psg:rate=\"1\">"
      "<listOfReactants><speciesReference species=\"A\"/>"
      "</listOfReactants></reaction></listOfReactions></model></sbml>");
  ASSERT_FALSE(Net.ok());
  EXPECT_EQ(Net.message(),
            "species 'A' has non-finite initial concentration nan");
}

// A species that repeats on one side merges into one term. A side whose
// coefficients sum past unsigned must fail the load rather than wrap
// (to 0, an addReaction abort, or to a smaller valid coefficient).
TEST(ModelIoTest, RejectsCoefficientOverflow) {
  const std::string Header = "model m\nspecies A 1\nspecies B 0\n";
  const char *Reactions[] = {
      "reaction 1 : 4294967295 A + A -> B\n",
      "reaction 1 : 4294967295 A + 2 A -> B\n",
      "reaction 1 : B -> 4294967295 A + A\n",
      // Distinct species: the side's order would wrap to 0.
      "reaction 1 : 4294967295 A + B -> B\n",
  };
  for (const char *Reaction : Reactions) {
    auto Net = parseModelText(Header + Reaction);
    ASSERT_FALSE(Net.ok()) << Reaction;
    EXPECT_NE(Net.message().find("line 4: stoichiometric coefficients"),
              std::string::npos)
        << Net.message();
  }
  // The largest side that fits still loads, merged.
  auto Fits = parseModelText(Header + "reaction 1 : 4294967294 A + A -> B\n");
  ASSERT_TRUE(Fits.ok()) << Fits.message();
  ASSERT_EQ(Fits->reaction(0).Reactants.size(), 1u);
  EXPECT_EQ(Fits->reaction(0).Reactants[0].second, 4294967295u);

  auto Sbml = parseSbml(
      "<sbml><model id=\"m\"><listOfSpecies>"
      "<species id=\"A\" initialConcentration=\"1\"/>"
      "<species id=\"B\" initialConcentration=\"0\"/></listOfSpecies>"
      "<listOfReactions><reaction id=\"r0\" psg:rate=\"1\"><listOfReactants>"
      "<speciesReference species=\"A\" stoichiometry=\"4294967295\"/>"
      "<speciesReference species=\"A\"/></listOfReactants>"
      "<listOfProducts><speciesReference species=\"B\"/></listOfProducts>"
      "</reaction></listOfReactions></model></sbml>");
  ASSERT_FALSE(Sbml.ok());
  EXPECT_NE(Sbml.message().find("stoichiometric coefficients"),
            std::string::npos)
      << Sbml.message();
}

/// Property: serialize -> parse is the identity on structure.
class ModelRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelRoundTripTest, WriteParseIsIdentity) {
  SyntheticModelOptions G;
  G.NumSpecies = 12;
  G.NumReactions = 24;
  G.Seed = GetParam();
  ReactionNetwork Net = generateSyntheticModel(G);
  auto Back = parseModelText(writeModelText(Net));
  ASSERT_TRUE(Back.ok()) << Back.message();
  ASSERT_EQ(Back->numSpecies(), Net.numSpecies());
  ASSERT_EQ(Back->numReactions(), Net.numReactions());
  for (size_t I = 0; I < Net.numSpecies(); ++I) {
    EXPECT_EQ(Back->species(I).Name, Net.species(I).Name);
    EXPECT_DOUBLE_EQ(Back->species(I).InitialConcentration,
                     Net.species(I).InitialConcentration);
  }
  for (size_t R = 0; R < Net.numReactions(); ++R) {
    EXPECT_DOUBLE_EQ(Back->reaction(R).RateConstant,
                     Net.reaction(R).RateConstant);
    EXPECT_EQ(Back->reaction(R).Reactants, Net.reaction(R).Reactants);
    EXPECT_EQ(Back->reaction(R).Products, Net.reaction(R).Products);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelRoundTripTest,
                         ::testing::Values(2, 4, 6, 8, 10));

TEST(ModelIoTest, SaturatingToyRoundTripsExactly) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  auto Back = parseModelText(writeModelText(Net));
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->reaction(1).Kind, KineticsKind::Hill);
  EXPECT_DOUBLE_EQ(Back->reaction(1).HillK, Net.reaction(1).HillK);
}

TEST(ModelIoTest, FileRoundTrip) {
  ReactionNetwork Net = makeRobertsonNetwork();
  const std::string Path = "/tmp/psg_model_test.txt";
  ASSERT_TRUE(saveModelFile(Net, Path).ok());
  auto Back = loadModelFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->numReactions(), 3u);
}

TEST(ModelIoTest, MissingFileFails) {
  EXPECT_FALSE(loadModelFile("/nonexistent/nope.txt").ok());
}

//===----------------------------------------------------------------------===//
// Synthetic generator.
//===----------------------------------------------------------------------===//

TEST(SyntheticGeneratorTest, RespectsRequestedSize) {
  SyntheticModelOptions G;
  G.NumSpecies = 40;
  G.NumReactions = 77;
  ReactionNetwork Net = generateSyntheticModel(G);
  EXPECT_EQ(Net.numSpecies(), 40u);
  EXPECT_EQ(Net.numReactions(), 77u);
  EXPECT_TRUE(Net.validate().ok());
}

TEST(SyntheticGeneratorTest, ValuesWithinDocumentedRanges) {
  SyntheticModelOptions G;
  G.NumSpecies = 30;
  G.NumReactions = 60;
  ReactionNetwork Net = generateSyntheticModel(G);
  for (const Species &S : Net.allSpecies()) {
    EXPECT_GE(S.InitialConcentration, 1e-4);
    EXPECT_LT(S.InitialConcentration, 1.0);
  }
  for (const Reaction &R : Net.allReactions()) {
    EXPECT_GE(R.RateConstant, 1e-6);
    EXPECT_LE(R.RateConstant, 10.0);
    EXPECT_LE(R.order(), 2u);
    unsigned Products = 0;
    for (const auto &[Idx, Coef] : R.Products)
      Products += Coef;
    EXPECT_GE(Products, 1u);
    EXPECT_LE(Products, 2u);
  }
}

TEST(SyntheticGeneratorTest, DeterministicForFixedSeed) {
  SyntheticModelOptions G;
  G.Seed = 99;
  ReactionNetwork A = generateSyntheticModel(G);
  ReactionNetwork B = generateSyntheticModel(G);
  EXPECT_EQ(writeModelText(A), writeModelText(B));
}

TEST(SyntheticGeneratorTest, SeedsProduceDifferentModels) {
  SyntheticModelOptions G1, G2;
  G1.Seed = 1;
  G2.Seed = 2;
  EXPECT_NE(writeModelText(generateSyntheticModel(G1)),
            writeModelText(generateSyntheticModel(G2)));
}

TEST(SyntheticGeneratorTest, EverySpeciesParticipatesWhenEnoughReactions) {
  SyntheticModelOptions G;
  G.NumSpecies = 20;
  G.NumReactions = 40;
  ReactionNetwork Net = generateSyntheticModel(G);
  std::vector<bool> Used(Net.numSpecies(), false);
  for (const Reaction &R : Net.allReactions()) {
    for (const auto &[Idx, Coef] : R.Reactants)
      Used[Idx] = true;
    for (const auto &[Idx, Coef] : R.Products)
      Used[Idx] = true;
  }
  for (size_t I = 0; I < Used.size(); ++I)
    EXPECT_TRUE(Used[I]) << "species " << I << " unused";
}

TEST(SyntheticGeneratorTest, PerturbationStaysWithin25Percent) {
  Rng R(5);
  std::vector<double> K = {1.0, 1e-3, 42.0};
  std::vector<double> Original = K;
  perturbRateConstants(K, R);
  for (size_t I = 0; I < K.size(); ++I) {
    EXPECT_GE(K[I], 0.75 * Original[I] * (1.0 - 1e-12));
    EXPECT_LE(K[I], 1.25 * Original[I] * (1.0 + 1e-12));
  }
}

//===----------------------------------------------------------------------===//
// Curated models.
//===----------------------------------------------------------------------===//

TEST(CuratedModelsTest, RobertsonNetworkMatchesRawOdeProblem) {
  ReactionNetwork Net = makeRobertsonNetwork();
  CompiledOdeSystem Sys(Net);
  TestProblem Raw = makeRobertson();
  // Same rhs at several states.
  for (double Y1 : {1.0, 0.5}) {
    double Y[3] = {Y1, 2e-5, 1.0 - Y1};
    double DNet[3], DRaw[3];
    Sys.rhs(0, Y, DNet);
    Raw.System->rhs(0, Y, DRaw);
    for (int I = 0; I < 3; ++I)
      EXPECT_NEAR(DNet[I], DRaw[I], 1e-9 * (1.0 + std::abs(DRaw[I])));
  }
}

TEST(CuratedModelsTest, RobertsonNetworkIntegratesToReference) {
  ReactionNetwork Net = makeRobertsonNetwork();
  CompiledOdeSystem Sys(Net);
  auto S = createSolver("radau5");
  SolverOptions Opts;
  Opts.MaxSteps = 100000;
  std::vector<double> Y = Net.initialState();
  ASSERT_TRUE((*S)->integrate(Sys, 0, 40, Y, Opts).ok());
  EXPECT_NEAR(Y[0], 0.7158270688, 1e-5);
  EXPECT_NEAR(Y[2], 0.2841637457, 1e-5);
}

TEST(CuratedModelsTest, DecayChainConservesMass) {
  ReactionNetwork Net = makeDecayChainNetwork(8, 2.0);
  CompiledOdeSystem Sys(Net);
  auto S = createSolver("dopri5");
  SolverOptions Opts;
  std::vector<double> Y = Net.initialState();
  double Total0 = 0;
  for (double V : Y)
    Total0 += V;
  ASSERT_TRUE((*S)->integrate(Sys, 0, 3.0, Y, Opts).ok());
  double Total1 = 0;
  for (double V : Y)
    Total1 += V;
  EXPECT_NEAR(Total1, Total0, 1e-6);
}

TEST(CuratedModelsTest, BrusselatorOscillatesInUnstableRegime) {
  // ConversionRate 2.5 > 1 + feed^2 = 2 -> limit cycle.
  ReactionNetwork Net = makeBrusselatorNetwork(1.0, 2.5);
  EXPECT_TRUE(Net.validate().ok());
  EXPECT_EQ(Net.numSpecies(), 3u);
  EXPECT_EQ(Net.numReactions(), 4u);
}

TEST(CuratedModelsTest, LotkaVolterraValidates) {
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  EXPECT_TRUE(Net.validate().ok());
}

TEST(CuratedModelsTest, AutophagySurrogatePaperSize) {
  AutophagySurrogate S = makeAutophagySurrogate();
  EXPECT_EQ(S.Net.numSpecies(), 173u);
  EXPECT_EQ(S.Net.numReactions(), 6581u);
  EXPECT_EQ(S.P9Reactions.size(), 5476u);
  EXPECT_TRUE(S.Net.validate().ok());
  EXPECT_LT(S.StressSpecies, S.Net.numSpecies());
  EXPECT_LT(S.ReporterEif4ebp, S.Net.numSpecies());
  for (size_t R : S.P9Reactions) {
    ASSERT_LT(R, S.Net.numReactions());
    EXPECT_DOUBLE_EQ(S.Net.reaction(R).RateConstant, S.BaselineCrossRate);
  }
}

TEST(CuratedModelsTest, AutophagySurrogateScalesDown) {
  AutophagySurrogate S = makeAutophagySurrogate(6, 4);
  EXPECT_EQ(S.Net.numSpecies(), 6u * 2 + 4 + 1);
  EXPECT_EQ(S.P9Reactions.size(), 36u);
  EXPECT_TRUE(S.Net.validate().ok());
}

TEST(CuratedModelsTest, MetabolicSurrogatePaperSize) {
  MetabolicSurrogate M = makeMetabolicSurrogate();
  EXPECT_EQ(M.Net.numSpecies(), 114u);
  EXPECT_EQ(M.Net.numReactions(), 226u);
  EXPECT_EQ(M.IsoformSpecies.size(), 11u);
  EXPECT_EQ(M.UnknownParameters.size(), 78u);
  EXPECT_TRUE(M.Net.validate().ok());
  // The isoform states carry the Table-1 names.
  EXPECT_EQ(M.Net.species(M.IsoformSpecies[0]).Name, "hkE2");
  EXPECT_EQ(M.Net.species(M.IsoformSpecies[7]).Name, "hkEGLCGSH2");
}

TEST(CuratedModelsTest, MetabolicSurrogateIntegrates) {
  MetabolicSurrogate M = makeMetabolicSurrogate();
  CompiledOdeSystem Sys(M.Net);
  auto S = createSolver("lsoda");
  SolverOptions Opts;
  Opts.MaxSteps = 100000;
  std::vector<double> Y = M.Net.initialState();
  IntegrationResult R = (*S)->integrate(Sys, 0, 10.0, Y, Opts);
  ASSERT_TRUE(R.ok()) << integrationStatusName(R.Status);
  for (double V : Y)
    EXPECT_TRUE(std::isfinite(V));
  EXPECT_GT(Y[M.ReporterR5P], 0.0);
}
