//===- tests/check_fuzz_test.cpp - Differential fuzzing tests -------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Randomized differential tests (ctest label: fuzz): the seeded random
// RBM generator, a bounded zero-divergence fuzz run across every
// simulator personality, and a forced-divergence self-test proving the
// minimizer and repro-file machinery actually fire. Also mutation fuzz
// of the wire protocol and of the three file readers.
//
//===----------------------------------------------------------------------===//

#include "check/CaseFile.h"
#include "check/Differential.h"
#include "check/Golden.h"
#include "fabric/WireFormat.h"
#include "io/WireIo.h"
#include "linalg/Jacobian.h"
#include "rbm/CuratedModels.h"
#include "rbm/MassAction.h"
#include "rbm/ModelIo.h"
#include "rbm/SbmlIo.h"
#include "rbm/SyntheticGenerator.h"
#include "sim/Simulators.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>

using namespace psg;

TEST(RandomRbmTest, IsDeterministicPerSeed) {
  RandomRbmOptions Opts;
  Opts.Seed = 7;
  const ReactionNetwork A = generateRandomRbm(Opts);
  const ReactionNetwork B = generateRandomRbm(Opts);
  EXPECT_EQ(networkFingerprint(A), networkFingerprint(B));

  Opts.Seed = 8;
  const ReactionNetwork C = generateRandomRbm(Opts);
  EXPECT_NE(networkFingerprint(A), networkFingerprint(C));
}

TEST(RandomRbmTest, RespectsBoundsAndValidates) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    RandomRbmOptions Opts;
    Opts.Seed = Seed;
    const ReactionNetwork Net = generateRandomRbm(Opts);
    EXPECT_TRUE(Net.validate().ok()) << "seed " << Seed;
    EXPECT_GE(Net.numSpecies(), Opts.MinSpecies) << "seed " << Seed;
    EXPECT_LE(Net.numSpecies(), Opts.MaxSpecies) << "seed " << Seed;
    EXPECT_GE(Net.numReactions(), Opts.MinReactions) << "seed " << Seed;
    EXPECT_LE(Net.numReactions(), Opts.MaxReactions) << "seed " << Seed;
    for (const Reaction &Rx : Net.allReactions()) {
      // The blow-up guard: no reaction may create net molecules from a
      // second-order collision.
      size_t Produced = 0;
      for (const auto &[Idx, Coef] : Rx.Products)
        Produced += Coef;
      EXPECT_LE(Produced, 2u) << "seed " << Seed;
      if (Rx.Kind == KineticsKind::Hill ||
          Rx.Kind == KineticsKind::HillRepression) {
        EXPECT_GE(Rx.order(), 1u) << "seed " << Seed;
        EXPECT_GT(Rx.HillK, 0.0) << "seed " << Seed;
        EXPECT_GE(Rx.HillN, 1.0) << "seed " << Seed;
      }
    }
  }
}

TEST(RandomRbmTest, GeneratesKineticDiversity) {
  // Across a pool of seeds the generator must actually exercise Hill,
  // Hill-repression, and all three mass-action orders.
  size_t Hill = 0, HillRep = 0, Orders[3] = {0, 0, 0};
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    RandomRbmOptions Opts;
    Opts.Seed = Seed;
    const ReactionNetwork Net = generateRandomRbm(Opts);
    for (const Reaction &Rx : Net.allReactions()) {
      if (Rx.Kind == KineticsKind::Hill)
        ++Hill;
      else if (Rx.Kind == KineticsKind::HillRepression)
        ++HillRep;
      else
        ++Orders[std::min<size_t>(Rx.order(), 2)];
    }
  }
  EXPECT_GT(Hill, 0u);
  EXPECT_GT(HillRep, 0u);
  EXPECT_GT(Orders[0], 0u);
  EXPECT_GT(Orders[1], 0u);
  EXPECT_GT(Orders[2], 0u);
}

// The fuzz acceptance gate: a seeded run across every personality with
// zero divergences. The ctest leg keeps the case count modest; the CI
// sanitize leg runs the full 200-case budget through psg-check.
TEST(DifferentialFuzzTest, SeededRunHasNoDivergences) {
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Cases = 25;
  Opts.ReproDir = testing::TempDir();
  FuzzReport Report = runDifferentialFuzz(Opts);
  EXPECT_EQ(Report.CasesRun, Opts.Cases);
  // Skips (reference non-convergence) are tolerable noise, but if most
  // cases skip the oracle is broken and the run proves nothing.
  EXPECT_LT(Report.CasesSkipped, Opts.Cases / 2);
  for (const FuzzDivergence &D : Report.Divergences)
    ADD_FAILURE() << "seed " << D.Case.Seed << " simulator "
                  << D.Case.Simulator << ": " << D.Case.Detail
                  << (D.ReproPath.empty() ? ""
                                          : " (repro: " + D.ReproPath + ")");
}

TEST(DifferentialFuzzTest, FuzzRunIsSeedDeterministic) {
  FuzzOptions Opts;
  Opts.Cases = 3;
  Opts.Seed = 99;
  Opts.ReproDir = testing::TempDir();
  FuzzReport A = runDifferentialFuzz(Opts);
  FuzzReport B = runDifferentialFuzz(Opts);
  EXPECT_EQ(A.CasesRun, B.CasesRun);
  EXPECT_EQ(A.CasesSkipped, B.CasesSkipped);
  EXPECT_EQ(A.Divergences.size(), B.Divergences.size());
}

// Self-test of the failure path: an absurdly tight comparison tolerance
// forces divergences, which must be minimized, dumped as replayable
// case files, and counted in the metrics registry.
TEST(DifferentialFuzzTest, ForcedDivergenceEmitsMinimizedRepro) {
  const uint64_t Before =
      metrics().counter("psg.check.fuzz.divergences").value();
  FuzzOptions Opts;
  Opts.Seed = 5;
  Opts.Cases = 3;
  Opts.CompareTol = 1e-15; // Below attainable accuracy: must diverge.
  Opts.ReproDir = testing::TempDir();
  FuzzReport Report = runDifferentialFuzz(Opts);
  ASSERT_FALSE(Report.ok());
  EXPECT_GT(metrics().counter("psg.check.fuzz.divergences").value(),
            Before);

  const FuzzDivergence &D = Report.Divergences.front();
  EXPECT_FALSE(D.Case.Simulator.empty());
  EXPECT_FALSE(D.Case.Detail.empty());
  // Minimization must have shrunk the window from the 5-second default.
  EXPECT_LT(D.Case.EndTime, Opts.EndTime);
  ASSERT_FALSE(D.ReproPath.empty());

  // The dumped case must load and still diverge under the recorded
  // tolerance, and pass under a sane one (it was never a real bug).
  auto LoadedOr = loadCaseFile(D.ReproPath);
  ASSERT_TRUE(LoadedOr) << LoadedOr.message();
  EXPECT_EQ(LoadedOr->Seed, D.Case.Seed);
  EXPECT_EQ(LoadedOr->Simulator, D.Case.Simulator);
  EXPECT_FALSE(replayCase(*LoadedOr, Opts.CompareTol).ok());
  EXPECT_TRUE(replayCase(*LoadedOr, /*CompareTol=*/5e-3).ok());
  std::remove(D.ReproPath.c_str());
}

TEST(DifferentialFuzzTest, ReferenceAgreesWithGoldenClosedForm) {
  // Sanity-check the oracle itself: on a curated mass-action model the
  // checker must pass at the default tolerance.
  CheckCase Case;
  RandomRbmOptions Gen;
  Gen.Seed = 2024;
  Case.Model = generateRandomRbm(Gen);
  Case.Seed = Gen.Seed;
  Case.EndTime = 2.0;
  Case.OutputSamples = 9;
  Case.Options.AbsTol = 1e-9;
  Case.Options.RelTol = 1e-6;
  Case.Options.MaxSteps = 200000;
  Status S = checkCaseAgainstReference(Case, /*CompareTol=*/5e-3);
  EXPECT_TRUE(S.ok()) << S.message();
}

// Satellite of the kind-partitioned kernel PR: the analytic Jacobian of
// every randomly generated RBM — across all four kinetics kinds — must
// agree with the forward-difference Jacobian of its own rhs. The FD
// comparison is what catches a wrong sparsity pattern or a wrong partial
// (the bit-exactness oracle in rhs_kernels_test would not: reference and
// partitioned kernels share the contribution lists' inputs).
TEST(DifferentialFuzzTest, AnalyticJacobianMatchesFiniteDifferences) {
  size_t SeenMassAction = 0, SeenMenten = 0, SeenHill = 0, SeenRepress = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    RandomRbmOptions Gen;
    Gen.Seed = Seed;
    Gen.HillFraction = 0.3;
    Gen.MichaelisMentenFraction = 0.3;
    const ReactionNetwork Net = generateRandomRbm(Gen);
    for (const Reaction &Rx : Net.allReactions()) {
      switch (Rx.Kind) {
      case KineticsKind::MassAction:
        ++SeenMassAction;
        break;
      case KineticsKind::MichaelisMenten:
        ++SeenMenten;
        break;
      case KineticsKind::Hill:
        ++SeenHill;
        break;
      case KineticsKind::HillRepression:
        ++SeenRepress;
        break;
      }
    }

    CompiledOdeSystem Sys(Net);
    const size_t N = Sys.dimension();
    Rng StateGen(Seed * 7919 + 13);
    std::vector<std::vector<double>> States = {Net.initialState()};
    std::vector<double> Perturbed = States[0];
    for (double &V : Perturbed)
      V *= StateGen.uniform(0.3, 2.5);
    States.push_back(std::move(Perturbed));

    RhsFunction Callback = [&Sys](double T, const double *Y, double *DyDt) {
      Sys.rhs(T, Y, DyDt);
    };
    std::vector<double> F0(N);
    Matrix JA, JN;
    for (const std::vector<double> &Y : States) {
      Sys.analyticJacobian(0.0, Y.data(), JA);
      Sys.rhs(0.0, Y.data(), F0.data());
      numericJacobian(Callback, 0.0, Y.data(), F0.data(), N, JN);
      for (size_t I = 0; I < N; ++I)
        for (size_t Jc = 0; Jc < N; ++Jc) {
          const double A = JA(I, Jc);
          const double D = JN(I, Jc);
          // Forward differences are only O(sqrt(eps))-accurate; gate at a
          // scale-relative 1e-3, loose enough for Hill curvature, tight
          // enough to catch any structural or sign error.
          EXPECT_NEAR(A, D, 1e-3 * (1.0 + std::abs(A)))
              << "seed " << Seed << " entry (" << I << ", " << Jc << ")";
        }
    }
  }
  // The pool must actually have exercised every kinetics kind, or the
  // gate above is vacuous for the missing ones.
  EXPECT_GT(SeenMassAction, 0u);
  EXPECT_GT(SeenMenten, 0u);
  EXPECT_GT(SeenHill, 0u);
  EXPECT_GT(SeenRepress, 0u);
}

//===----------------------------------------------------------------------===//
// Wire-protocol fuzz (satellite of the cross-node fabric PR): the frame
// parser and payload decoders face a byte stream from the network, so
// they must never crash, over-read, or mis-allocate on arbitrary input.
// Two legs: pure garbage, and valid frames mutilated at a random byte.
//===----------------------------------------------------------------------===//

TEST(WireFuzzTest, ParserSurvivesRandomByteStreams) {
  Rng Gen(0xA11CE); // Seeded: failures replay exactly.
  for (int Trial = 0; Trial < 4000; ++Trial) {
    std::vector<uint8_t> Junk(Gen.nextU64() % 2048);
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(Gen.nextU64());
    // Must not crash; acceptance of random bytes past magic + CRC is
    // a ~2^-64 event, so any ok() here is a real finding.
    ErrorOr<FrameView> V = parseFrame(Junk);
    EXPECT_FALSE(V.ok()) << "trial " << Trial;
    FrameInspection I = inspectFrame(Junk);
    EXPECT_FALSE(I.Valid) << "trial " << Trial;
  }
}

TEST(WireFuzzTest, DecodersSurviveMutatedValidFrames) {
  Rng Gen(20260808);
  ShardGrantMsg Grant;
  Grant.ShardId = 128;
  Grant.Epoch = 2;
  Grant.First = 128;
  Grant.Attempt = 1;
  Grant.ChunkSize = 64;
  Grant.EndTime = 5.0;
  Grant.OutputSamples = 17;
  for (int I = 0; I < 8; ++I) {
    Grant.RateConstantSets.push_back({Gen.uniform(), Gen.uniform()});
    Grant.InitialStates.push_back({Gen.uniform(0.0, 10.0)});
  }
  const std::vector<uint8_t> Good = encodeShardGrant(Grant);
  ASSERT_TRUE(parseFrame(Good).ok());

  size_t Parsed = 0;
  for (int Trial = 0; Trial < 4000; ++Trial) {
    std::vector<uint8_t> Bad = Good;
    const size_t Flips = 1 + Gen.nextU64() % 4;
    for (size_t F = 0; F < Flips; ++F)
      Bad[Gen.nextU64() % Bad.size()] ^=
          static_cast<uint8_t>(1u << (Gen.nextU64() % 8));
    ErrorOr<FrameView> V = parseFrame(Bad);
    if (!V.ok())
      continue;
    // Only reserved-byte flips can get past the CRC; the payload under
    // a valid CRC is the original, so the decode must succeed too.
    ++Parsed;
    ErrorOr<ShardGrantMsg> M = decodeShardGrant(*V);
    EXPECT_TRUE(M.ok()) << "trial " << Trial << ": " << M.message();
    if (M.ok()) {
      EXPECT_EQ(M->ShardId, Grant.ShardId);
    }
  }
  // Sanity: the mutation loop must have actually been rejecting frames,
  // not silently accepting everything through a broken checksum.
  EXPECT_LT(Parsed, 200u);
}

TEST(WireFuzzTest, OutcomeDecoderIsBoundedOnRandomPayloads) {
  Rng Gen(77);
  WireLimits Limits;
  Limits.MaxStringBytes = 4096;
  Limits.MaxVectorDoubles = 1 << 16;
  Limits.MaxBatchSimulations = 1 << 12;
  for (int Trial = 0; Trial < 4000; ++Trial) {
    std::vector<uint8_t> Junk(Gen.nextU64() % 1024);
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(Gen.nextU64());
    WireReader R(Junk.data(), Junk.size());
    SimulationOutcome O;
    // Most junk fails fast on a length check; the contract is simply
    // "no crash, no unbounded allocation, clean false on failure".
    (void)decodeOutcome(R, O, Limits);
    WireReader R2(Junk.data(), Junk.size());
    std::vector<std::vector<double>> Sets;
    (void)decodeParamSets(R2, Sets, Limits);
  }
}

//===----------------------------------------------------------------------===//
// Reader fuzz: the model text reader, the XML/SBML reader and the .psg
// case reader take user files. Each is seeded with a valid document from
// its own writer and fed seeded mutations of it (bit flips, a deleted
// line, a duplicated line, a duplicated token), after the inputs that
// once crashed it. Contract: every call returns a value or a failure,
// never a signal; the ASan+UBSan leg also turns any memory error or
// undefined behavior into a failure.
//===----------------------------------------------------------------------===//

namespace {

/// Splits \p Doc into lines, each keeping its '\n'.
std::vector<std::string> splitLines(const std::string &Doc) {
  std::vector<std::string> Lines;
  for (size_t Pos = 0; Pos < Doc.size();) {
    const size_t End = std::min(Doc.find('\n', Pos), Doc.size() - 1);
    Lines.push_back(Doc.substr(Pos, End - Pos + 1));
    Pos = End + 1;
  }
  return Lines;
}

/// Applies one seeded mutation to \p Doc.
std::string mutate(const std::string &Doc, Rng &Gen) {
  std::vector<std::string> Lines = splitLines(Doc);
  if (Lines.empty())
    return Doc;
  const size_t L = Gen.uniformInt(Lines.size());
  switch (Gen.uniformInt(4)) {
  case 0: { // Flip one to four random bits.
    std::string Out = Doc;
    const uint64_t Flips = 1 + Gen.uniformInt(4);
    for (uint64_t F = 0; F < Flips; ++F)
      Out[Gen.uniformInt(Out.size())] ^=
          static_cast<char>(1u << Gen.uniformInt(8));
    return Out;
  }
  case 1:
    Lines.erase(Lines.begin() + L);
    break;
  case 2:
    Lines.insert(Lines.begin() + L, Lines[L]);
    break;
  default: { // Repeat one whitespace-separated token of a line.
    std::string &Line = Lines[L];
    auto isSpace = [&Line](size_t I) {
      return std::isspace(static_cast<unsigned char>(Line[I])) != 0;
    };
    std::vector<std::pair<size_t, size_t>> Tokens;
    for (size_t I = 0; I < Line.size();) {
      while (I < Line.size() && isSpace(I))
        ++I;
      const size_t Begin = I;
      while (I < Line.size() && !isSpace(I))
        ++I;
      if (I > Begin)
        Tokens.emplace_back(Begin, I);
    }
    if (!Tokens.empty()) {
      const auto [Begin, End] = Tokens[Gen.uniformInt(Tokens.size())];
      Line.insert(End, " " + Line.substr(Begin, End - Begin));
    }
    break;
  }
  }
  std::string Out;
  for (const std::string &Line : Lines)
    Out += Line;
  return Out;
}

/// Feeds 3000 seeded mutants of \p Seed (one to three stacked mutations
/// each) to \p Read, which returns whether the reader accepted one.
template <typename ReadFn>
void fuzzReader(const std::string &Seed, uint64_t RngSeed, ReadFn Read) {
  ASSERT_TRUE(Read(Seed)) << "the writer's own document must load";
  constexpr size_t Trials = 3000;
  Rng Gen(RngSeed); // Seeded: failures replay exactly.
  size_t Accepted = 0;
  for (size_t Trial = 0; Trial < Trials; ++Trial) {
    std::string Doc = Seed;
    const uint64_t Mutations = 1 + Gen.uniformInt(3);
    for (uint64_t M = 0; M < Mutations; ++M)
      Doc = mutate(Doc, Gen);
    Accepted += Read(Doc);
  }
  // Mutants must land on both sides of the grammar, or the corpus
  // never reached the reader's error paths (or never got past them).
  EXPECT_GT(Accepted, 0u);
  EXPECT_LT(Accepted, Trials);
}

std::string nestedXml(size_t Levels) {
  std::string Xml = "<sbml>";
  for (size_t I = 0; I < Levels; ++I)
    Xml += "<a>";
  for (size_t I = 0; I < Levels; ++I)
    Xml += "</a>";
  return Xml + "</sbml>";
}

/// SBML of one reaction whose reactant side lists species A once per
/// entry of \p Stoichiometries, with that stoichiometry.
std::string sbmlConsumingA(const std::vector<std::string> &Stoichiometries) {
  std::string Xml = "<sbml><model id=\"m\"><listOfSpecies>"
                    "<species id=\"A\" initialConcentration=\"1\"/>"
                    "<species id=\"B\" initialConcentration=\"0\"/>"
                    "</listOfSpecies><listOfReactions>"
                    "<reaction id=\"r0\" psg:rate=\"1\"><listOfReactants>";
  for (const std::string &S : Stoichiometries)
    Xml += "<speciesReference species=\"A\" stoichiometry=\"" + S + "\"/>";
  return Xml + "</listOfReactants><listOfProducts>"
               "<speciesReference species=\"B\"/></listOfProducts>"
               "</reaction></listOfReactions></model></sbml>";
}

} // namespace

TEST(ReaderFuzzTest, ModelTextSurvivesMutations) {
  // Inputs that once crashed the reader: a repeated species whose
  // merged coefficient wraps.
  const std::string Head = "model m\nspecies A 1\nspecies B 0\nreaction 1 : ";
  EXPECT_FALSE(parseModelText(Head + "4294967295 A + A -> B\n").ok());
  EXPECT_FALSE(parseModelText(Head + "4294967295 A + 2 A -> B\n").ok());
  EXPECT_FALSE(parseModelText(Head + "B -> 4294967295 A + A\n").ok());
  EXPECT_FALSE(parseModelText(Head + "4294967295 A + B -> B\n").ok());

  RandomRbmOptions Gen;
  Gen.Seed = 11;
  Gen.HillFraction = 0.3;
  Gen.MichaelisMentenFraction = 0.3;
  fuzzReader(writeModelText(generateRandomRbm(Gen)), 0x7E47,
             [](const std::string &Doc) { return parseModelText(Doc).ok(); });
}

TEST(ReaderFuzzTest, SbmlSurvivesMutations) {
  // Inputs that once crashed the reader: a wrapping merged
  // stoichiometry, stoichiometries an unsigned cannot hold, and nesting
  // deep enough to overflow the recursive parser's stack.
  ASSERT_TRUE(parseSbml(sbmlConsumingA({"2", "1"})).ok());
  EXPECT_FALSE(parseSbml(sbmlConsumingA({"4294967295", "1"})).ok());
  EXPECT_FALSE(parseSbml(sbmlConsumingA({"4294967296"})).ok());
  EXPECT_FALSE(parseSbml(sbmlConsumingA({"1e20"})).ok());
  EXPECT_FALSE(parseSbml(sbmlConsumingA({"nan"})).ok());
  EXPECT_FALSE(parseSbml(nestedXml(50000)).ok());

  ErrorOr<std::string> Seed = writeSbml(makeRobertsonNetwork());
  ASSERT_TRUE(Seed.ok()) << Seed.message();
  fuzzReader(*Seed, 0x5B31,
             [](const std::string &Doc) { return parseSbml(Doc).ok(); });
}

TEST(ReaderFuzzTest, CaseFileSurvivesMutations) {
  // Inputs the reader once accepted and replay then aborted on, failed
  // as a false divergence, or wrapped.
  const std::string Model = "model m\nspecies A 1\nreaction 1 : A -> 0\n";
  auto withLine = [&Model](const std::string &Line) {
    return "check seed 1\ncheck " + Line + "\n" + Model;
  };
  EXPECT_FALSE(parseCaseText(withLine("window 1 0")));
  EXPECT_FALSE(parseCaseText(withLine("window 0 nan")));
  EXPECT_FALSE(parseCaseText(withLine("window 0 inf")));
  EXPECT_FALSE(parseCaseText(withLine("tolerances nan 1e-6")));
  EXPECT_FALSE(parseCaseText(withLine("tolerances 0 0")));
  EXPECT_FALSE(parseCaseText(withLine("tolerances -1 -1")));
  EXPECT_FALSE(parseCaseText(withLine("maxsteps abc")));
  EXPECT_FALSE(parseCaseText(withLine("maxsteps 0")));
  EXPECT_FALSE(parseCaseText(withLine("maxsteps -5")));
  EXPECT_FALSE(parseCaseText(withLine("seed abc")));

  RandomRbmOptions Gen;
  Gen.Seed = 23;
  CheckCase Case;
  Case.Model = generateRandomRbm(Gen);
  Case.Seed = 0xFEEDFACECAFEBEEFull;
  Case.EndTime = 1.0;
  Case.OutputSamples = 9;
  Case.Options.MaxSteps = 100000;
  Case.Simulator = "cpu-lsoda";
  Case.Detail = "worst mixed-relative sample error 0.5 exceeds 0.005";
  // An accepted case also satisfies what replay relies on.
  fuzzReader(writeCaseText(Case), 0xCA5E, [](const std::string &Doc) {
    ErrorOr<CheckCase> C = parseCaseText(Doc);
    if (!C)
      return false;
    EXPECT_TRUE(std::isfinite(C->StartTime) && std::isfinite(C->EndTime) &&
                C->StartTime < C->EndTime)
        << Doc;
    EXPECT_TRUE(C->Options.AbsTol > 0 && C->Options.RelTol > 0 &&
                std::isfinite(C->Options.AbsTol) &&
                std::isfinite(C->Options.RelTol))
        << Doc;
    EXPECT_GE(C->Options.MaxSteps, 1u) << Doc;
    return true;
  });
}
