//===- tests/check_fuzz_test.cpp - Differential fuzzing tests -------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Randomized differential tests (ctest label: fuzz): the seeded random
// RBM generator, a bounded zero-divergence fuzz run across every
// simulator personality, and a forced-divergence self-test proving the
// minimizer and repro-file machinery actually fire.
//
//===----------------------------------------------------------------------===//

#include "check/Differential.h"
#include "check/Golden.h"
#include "fabric/WireFormat.h"
#include "io/WireIo.h"
#include "linalg/Jacobian.h"
#include "rbm/MassAction.h"
#include "rbm/SyntheticGenerator.h"
#include "sim/Simulators.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

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
