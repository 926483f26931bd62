//===- tests/sbml_conservation_test.cpp - SBML IO and conservation --------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "rbm/Conservation.h"
#include "rbm/CuratedModels.h"
#include "rbm/MassAction.h"
#include "rbm/ModelIo.h"
#include "rbm/SbmlIo.h"
#include "rbm/SyntheticGenerator.h"

#include "ode/SolverRegistry.h"
#include "ode/Trajectory.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace psg;

//===----------------------------------------------------------------------===//
// XML mini-parser.
//===----------------------------------------------------------------------===//

TEST(XmlTest, ParsesElementsAttributesAndText) {
  auto Doc = xml::parseDocument(
      "<?xml version=\"1.0\"?>\n"
      "<root a=\"1\" b='two'>\n"
      "  <child x=\"y\"/>\n"
      "  <child>text &amp; more</child>\n"
      "</root>");
  ASSERT_TRUE(Doc.ok()) << Doc.message();
  EXPECT_EQ(Doc->Name, "root");
  ASSERT_NE(Doc->findAttribute("a"), nullptr);
  EXPECT_EQ(*Doc->findAttribute("a"), "1");
  EXPECT_EQ(*Doc->findAttribute("b"), "two");
  EXPECT_EQ(Doc->findAttribute("missing"), nullptr);
  auto Children = Doc->children("child");
  ASSERT_EQ(Children.size(), 2u);
  EXPECT_EQ(*Children[0]->findAttribute("x"), "y");
  EXPECT_EQ(Children[1]->Text, "text & more");
}

TEST(XmlTest, SkipsCommentsAndProcessingInstructions) {
  auto Doc = xml::parseDocument(
      "<!-- header --><root><!-- inside --><a/><?pi data?></root>");
  ASSERT_TRUE(Doc.ok()) << Doc.message();
  EXPECT_EQ(Doc->Children.size(), 1u);
}

TEST(XmlTest, RejectsMismatchedTags) {
  EXPECT_FALSE(xml::parseDocument("<a><b></a></b>").ok());
}

TEST(XmlTest, RejectsUnterminatedDocument) {
  EXPECT_FALSE(xml::parseDocument("<a><b>").ok());
  EXPECT_FALSE(xml::parseDocument("<a foo=>").ok());
}

TEST(XmlTest, RejectsTrailingContent) {
  EXPECT_FALSE(xml::parseDocument("<a/><b/>").ok());
}

//===----------------------------------------------------------------------===//
// SBML import.
//===----------------------------------------------------------------------===//

namespace {
const char *MinimalSbml = R"(<?xml version="1.0" encoding="UTF-8"?>
<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core" level="3" version="1">
  <model id="mini">
    <listOfSpecies>
      <species id="A" initialConcentration="2.0"/>
      <species id="B" initialAmount="0.5"/>
      <species id="C"/>
    </listOfSpecies>
    <listOfReactions>
      <reaction id="r0" reversible="false">
        <listOfReactants>
          <speciesReference species="A" stoichiometry="2"/>
        </listOfReactants>
        <listOfProducts>
          <speciesReference species="B"/>
        </listOfProducts>
        <kineticLaw>
          <listOfLocalParameters>
            <localParameter id="k" value="0.75"/>
          </listOfLocalParameters>
        </kineticLaw>
      </reaction>
      <reaction id="r1" psg:rate="1.25">
        <listOfReactants>
          <speciesReference species="B"/>
        </listOfReactants>
        <listOfProducts>
          <speciesReference species="C"/>
        </listOfProducts>
      </reaction>
    </listOfReactions>
  </model>
</sbml>)";
} // namespace

TEST(SbmlTest, ParsesMinimalModel) {
  auto Net = parseSbml(MinimalSbml);
  ASSERT_TRUE(Net.ok()) << Net.message();
  EXPECT_EQ(Net->name(), "mini");
  EXPECT_EQ(Net->numSpecies(), 3u);
  EXPECT_EQ(Net->numReactions(), 2u);
  EXPECT_DOUBLE_EQ(Net->species(0).InitialConcentration, 2.0);
  EXPECT_DOUBLE_EQ(Net->species(1).InitialConcentration, 0.5);
  EXPECT_DOUBLE_EQ(Net->reaction(0).RateConstant, 0.75);
  EXPECT_EQ(Net->reaction(0).Reactants[0].second, 2u);
  EXPECT_DOUBLE_EQ(Net->reaction(1).RateConstant, 1.25);
}

TEST(SbmlTest, RejectsReversibleReactions) {
  std::string Xml = MinimalSbml;
  const size_t Pos = Xml.find("reversible=\"false\"");
  Xml.replace(Pos, 18, "reversible=\"true\" ");
  auto Net = parseSbml(Xml);
  ASSERT_FALSE(Net.ok());
  EXPECT_NE(Net.message().find("reversible"), std::string::npos);
}

TEST(SbmlTest, RejectsUnknownSpeciesReference) {
  std::string Xml = MinimalSbml;
  const size_t Pos = Xml.find("species=\"A\"");
  Xml.replace(Pos, 11, "species=\"Q\"");
  EXPECT_FALSE(parseSbml(Xml).ok());
}

TEST(SbmlTest, RejectsReactionWithoutKineticConstant) {
  auto Net = parseSbml(
      "<sbml><model id=\"m\"><listOfSpecies>"
      "<species id=\"A\" initialConcentration=\"1\"/></listOfSpecies>"
      "<listOfReactions><reaction id=\"r\"><listOfReactants>"
      "<speciesReference species=\"A\"/></listOfReactants>"
      "</reaction></listOfReactions></model></sbml>");
  ASSERT_FALSE(Net.ok());
  EXPECT_NE(Net.message().find("kineticLaw"), std::string::npos);
}

// The XML parser recurses once per element level, so nesting is capped
// at 256 levels; a deeper document must fail, not exhaust the stack.
TEST(SbmlTest, RejectsDeepNesting) {
  auto nested = [](size_t Levels) {
    std::string Xml;
    for (size_t I = 0; I < Levels; ++I)
      Xml += "<a>";
    for (size_t I = 0; I < Levels; ++I)
      Xml += "</a>";
    return Xml;
  };
  EXPECT_TRUE(xml::parseDocument(nested(256)).ok());
  auto Over = xml::parseDocument(nested(257));
  ASSERT_FALSE(Over.ok());
  EXPECT_NE(Over.message().find("nested deeper than 256 levels"),
            std::string::npos)
      << Over.message();

  auto Net = parseSbml("<sbml>" + nested(100000) + "</sbml>");
  ASSERT_FALSE(Net.ok());
  EXPECT_NE(Net.message().find("XML error"), std::string::npos)
      << Net.message();
  EXPECT_NE(Net.message().find("256"), std::string::npos) << Net.message();
}

TEST(SbmlTest, WriterRoundTripsStructure) {
  SyntheticModelOptions G;
  G.NumSpecies = 9;
  G.NumReactions = 14;
  G.Seed = 12;
  ReactionNetwork Net = generateSyntheticModel(G);
  auto Xml = writeSbml(Net);
  ASSERT_TRUE(Xml.ok()) << Xml.message();
  auto Back = parseSbml(*Xml);
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

TEST(SbmlTest, WriterRejectsSaturatingKinetics) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  EXPECT_FALSE(writeSbml(Net).ok());
}

TEST(SbmlTest, FileRoundTrip) {
  ReactionNetwork Net = makeRobertsonNetwork();
  const std::string Path = "/tmp/psg_sbml_test.xml";
  ASSERT_TRUE(saveSbmlFile(Net, Path).ok());
  auto Back = loadSbmlFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->numReactions(), 3u);
}

TEST(SbmlTest, ConvertsBetweenFormats) {
  // Text format -> network -> SBML -> network -> text: same structure.
  ReactionNetwork Net = makeLotkaVolterraNetwork();
  auto Xml = writeSbml(Net);
  ASSERT_TRUE(Xml.ok());
  auto Back = parseSbml(*Xml);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(writeModelText(*Back), writeModelText(Net));
}

//===----------------------------------------------------------------------===//
// Conservation laws.
//===----------------------------------------------------------------------===//

TEST(ConservationTest, DecayChainConservesTotalMass) {
  ReactionNetwork Net = makeDecayChainNetwork(6, 2.0);
  ConservationLaws Laws = findConservationLaws(Net);
  // The chain has no sink reaction beyond the last species... the last
  // species only accumulates, so sum of all species is conserved.
  ASSERT_EQ(Laws.count(), 1u);
  for (double W : Laws.Basis[0])
    EXPECT_NEAR(W, Laws.Basis[0][0], 1e-9); // All-equal weights.
}

TEST(ConservationTest, RobertsonConservesTotalMass) {
  ReactionNetwork Net = makeRobertsonNetwork();
  ConservationLaws Laws = findConservationLaws(Net);
  ASSERT_EQ(Laws.count(), 1u);
  EXPECT_NEAR(Laws.Basis[0][0], Laws.Basis[0][1], 1e-9);
  EXPECT_NEAR(Laws.Basis[0][1], Laws.Basis[0][2], 1e-9);
}

TEST(ConservationTest, OpenSystemHasNoLaws) {
  // A -> 0 with 0 -> A: nothing conserved.
  ReactionNetwork Net("open");
  const unsigned A = Net.addSpecies("A", 1.0);
  Reaction In;
  In.RateConstant = 1.0;
  In.Products.emplace_back(A, 1);
  Net.addReaction(std::move(In));
  Reaction Out;
  Out.RateConstant = 1.0;
  Out.Reactants.emplace_back(A, 1);
  Net.addReaction(std::move(Out));
  EXPECT_EQ(findConservationLaws(Net).count(), 0u);
}

TEST(ConservationTest, EnzymeTotalIsConserved) {
  // E + S <-> ES -> E + P: total enzyme (E + ES) and total substrate
  // (S + ES + P) are conserved: 2 laws.
  ReactionNetwork Net("enzyme");
  const unsigned E = Net.addSpecies("E", 1.0);
  const unsigned S = Net.addSpecies("S", 2.0);
  const unsigned ES = Net.addSpecies("ES", 0.0);
  const unsigned P = Net.addSpecies("P", 0.0);
  Reaction Bind;
  Bind.RateConstant = 1.0;
  Bind.Reactants = {{E, 1}, {S, 1}};
  Bind.Products = {{ES, 1}};
  Net.addReaction(std::move(Bind));
  Reaction Unbind;
  Unbind.RateConstant = 0.5;
  Unbind.Reactants = {{ES, 1}};
  Unbind.Products = {{E, 1}, {S, 1}};
  Net.addReaction(std::move(Unbind));
  Reaction Cat;
  Cat.RateConstant = 2.0;
  Cat.Reactants = {{ES, 1}};
  Cat.Products = {{E, 1}, {P, 1}};
  Net.addReaction(std::move(Cat));

  ConservationLaws Laws = findConservationLaws(Net);
  ASSERT_EQ(Laws.count(), 2u);
  // Both laws must actually be invariants of the dynamics.
  CompiledOdeSystem Sys(Net);
  auto Solver = createSolver("dopri5");
  SolverOptions Opts;
  std::vector<double> Y = Net.initialState();
  std::vector<double> Y0 = Y;
  ASSERT_TRUE((*Solver)->integrate(Sys, 0, 5.0, Y, Opts).ok());
  for (size_t L = 0; L < Laws.count(); ++L)
    EXPECT_NEAR(Laws.evaluate(L, Y.data()), Laws.evaluate(L, Y0.data()),
                1e-6)
        << "law " << L;
}

TEST(ConservationTest, LawsAreDynamicalInvariantsOnSyntheticModels) {
  // Property: every detected law stays constant along a real trajectory.
  for (uint64_t Seed : {3u, 9u, 27u}) {
    SyntheticModelOptions G;
    G.NumSpecies = 10;
    G.NumReactions = 12;
    G.Seed = Seed;
    ReactionNetwork Net = generateSyntheticModel(G);
    ConservationLaws Laws = findConservationLaws(Net);
    if (Laws.count() == 0)
      continue;
    CompiledOdeSystem Sys(Net);
    auto Solver = createSolver("lsoda");
    SolverOptions Opts;
    Opts.MaxSteps = 100000;
    std::vector<double> Y = Net.initialState();
    std::vector<double> Y0 = Y;
    ASSERT_TRUE((*Solver)->integrate(Sys, 0, 2.0, Y, Opts).ok());
    for (size_t L = 0; L < Laws.count(); ++L) {
      const double Before = Laws.evaluate(L, Y0.data());
      const double After = Laws.evaluate(L, Y.data());
      EXPECT_NEAR(After, Before, 1e-5 * (1.0 + std::abs(Before)))
          << "seed " << Seed << " law " << L;
    }
  }
}

TEST(ConservationTest, MassActionRhsIsOrthogonalToLaws) {
  // Stronger check: w^T f(y) == 0 pointwise, not just along solutions.
  ReactionNetwork Net = makeRobertsonNetwork();
  ConservationLaws Laws = findConservationLaws(Net);
  ASSERT_EQ(Laws.count(), 1u);
  CompiledOdeSystem Sys(Net);
  Rng R(5);
  for (int Trial = 0; Trial < 10; ++Trial) {
    double Y[3] = {R.uniform(), R.uniform(), R.uniform()};
    double D[3];
    Sys.rhs(0, Y, D);
    EXPECT_NEAR(Laws.evaluate(0, D), 0.0, 1e-9);
  }
}
