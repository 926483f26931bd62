//===- tests/rhs_kernels_test.cpp - Kind-partitioned kernel oracle --------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// The bit-exactness contract of CompiledModel v2: the kind-partitioned
// rate/Jacobian kernels must reproduce the reference (per-reaction
// branching) evaluation bit-for-bit — on raw evaluations, through the
// pattern-claimed workspace reuse, and through entire simulator
// personalities.
//
//===----------------------------------------------------------------------===//

#include "rbm/Kinetics.h"
#include "rbm/MassAction.h"

#include "linalg/Jacobian.h"
#include "ode/SolverRegistry.h"
#include "rbm/CuratedModels.h"
#include "rbm/SyntheticGenerator.h"
#include "sim/Oracle.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "vgpu/CostModel.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace psg;

namespace {

/// Reference-kernel toggle with RAII reset, so a failing assertion never
/// leaks the reference mode into other tests.
struct ReferenceKernelsScope {
  explicit ReferenceKernelsScope(bool Enable) {
    CompiledOdeSystem::setUseReferenceKernelsForTesting(Enable);
  }
  ~ReferenceKernelsScope() {
    CompiledOdeSystem::setUseReferenceKernelsForTesting(false);
  }
};

/// The fuzz-generator options for kernel differential tests: all four
/// kinetics kinds in play.
RandomRbmOptions allKindsOptions(uint64_t Seed) {
  RandomRbmOptions Opts;
  Opts.Seed = Seed;
  Opts.HillFraction = 0.35;
  Opts.MichaelisMentenFraction = 0.35;
  Opts.MaxSpecies = 10;
  Opts.MaxReactions = 16;
  return Opts;
}

/// A deterministic family of states around the network's initial
/// concentrations, including zero and negative components (the saturating
/// factors clamp, and the rhs zero-skip must fire identically).
std::vector<std::vector<double>> probeStates(const ReactionNetwork &Net,
                                             uint64_t Seed) {
  std::vector<double> Y0 = Net.initialState();
  std::vector<std::vector<double>> States = {Y0};
  Rng Gen(Seed);
  for (int S = 0; S < 4; ++S) {
    std::vector<double> Y = Y0;
    for (double &V : Y)
      V *= Gen.uniform(0.2, 3.0);
    States.push_back(std::move(Y));
  }
  std::vector<double> Zero(Y0.size(), 0.0);
  States.push_back(Zero);
  std::vector<double> Mixed = Y0;
  for (size_t I = 0; I < Mixed.size(); ++I)
    Mixed[I] = I % 3 == 0 ? 0.0 : (I % 3 == 1 ? -Mixed[I] : Mixed[I]);
  States.push_back(Mixed);
  return States;
}

void expectRhsAndJacobianBitExact(const ReactionNetwork &Net, uint64_t Seed) {
  CompiledOdeSystem Sys(Net);
  const size_t N = Sys.dimension();
  std::vector<double> DPart(N), DRef(N);
  Matrix JPart, JRef;
  for (const std::vector<double> &Y : probeStates(Net, Seed)) {
    Sys.rhs(0.0, Y.data(), DPart.data());
    Sys.rhsReference(0.0, Y.data(), DRef.data());
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(DPart[I], DRef[I])
          << Net.name() << " rhs mismatch at component " << I;
    Sys.analyticJacobian(0.0, Y.data(), JPart);
    Sys.analyticJacobianReference(0.0, Y.data(), JRef);
    EXPECT_TRUE(JPart == JRef) << Net.name() << " Jacobian mismatch";
  }
}

} // namespace

TEST(IpowTest, LinearRangeIsPinnedToSequentialProduct) {
  // The bit-exactness contract: exponents up to IpowLinearMax evaluate as
  // the left-to-right product ((1*x)*x)*x..., nothing else. Raising the
  // threshold or reassociating breaks trajectory reproducibility.
  EXPECT_EQ(IpowLinearMax, 3u);
  const double Values[] = {0.1, 1.0 / 3.0, 0.7853981633974483, 2.5,
                           1234.5678901234567};
  for (double X : Values) {
    EXPECT_EQ(ipow(X, 0), 1.0);
    EXPECT_EQ(ipow(X, 1), X);
    EXPECT_EQ(ipow(X, 2), (1.0 * X) * X);
    EXPECT_EQ(ipow(X, 3), ((1.0 * X) * X) * X);
    // Above the threshold, squaring: x^4 associates as (x^2)^2.
    const double X2 = X * X;
    EXPECT_EQ(ipow(X, 4), X2 * X2);
    EXPECT_EQ(ipow(X, 5), (X2 * X2) * X);
  }
}

TEST(IpowTest, SquaringPathIsAccurate) {
  for (unsigned E = 4; E <= 20; ++E) {
    const double X = 1.1;
    const double Exact = std::pow(X, static_cast<double>(E));
    EXPECT_NEAR(ipow(X, E), Exact, 1e-12 * Exact) << "exponent " << E;
  }
  EXPECT_EQ(ipow(2.0, 10), 1024.0);
  EXPECT_EQ(ipow(0.0, 7), 0.0);
}

TEST(KernelPartitionTest, RunsFormAStablePermutation) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  CompiledOdeSystem Sys(Net);
  const CompiledModel &M = Sys.model();
  ASSERT_EQ(M.RunOrder.size(), M.NumReactions);
  ASSERT_EQ(M.PositionOf.size(), M.NumReactions);
  // RunOrder is a permutation and PositionOf its inverse.
  std::vector<bool> Seen(M.NumReactions, false);
  for (uint32_t P = 0; P < M.NumReactions; ++P) {
    const uint32_t R = M.RunOrder[P];
    ASSERT_LT(R, M.NumReactions);
    EXPECT_FALSE(Seen[R]) << "reaction " << R << " appears twice";
    Seen[R] = true;
    EXPECT_EQ(M.PositionOf[R], P);
  }
  // Runs tile [0, NumReactions) contiguously with strictly increasing
  // class values (the stable bucket order).
  uint32_t Expect = 0;
  int LastClass = -1;
  for (const CompiledModel::KernelRun &Run : M.Runs) {
    EXPECT_EQ(Run.Begin, Expect);
    EXPECT_LT(Run.Begin, Run.End);
    EXPECT_GT(static_cast<int>(Run.Class), LastClass);
    LastClass = static_cast<int>(Run.Class);
    Expect = Run.End;
  }
  EXPECT_EQ(Expect, M.NumReactions);
  // Within a run, original reaction indices stay in ascending order
  // (stability of the partition).
  for (const CompiledModel::KernelRun &Run : M.Runs)
    for (uint32_t P = Run.Begin + 1; P < Run.End; ++P)
      EXPECT_LT(M.RunOrder[P - 1], M.RunOrder[P]);
}

TEST(KernelPartitionTest, JacobianPatternCoversDenseReference) {
  for (uint64_t Seed : {3u, 11u, 42u}) {
    ReactionNetwork Net = generateRandomRbm(allKindsOptions(Seed));
    CompiledOdeSystem Sys(Net);
    const CompiledModel &M = Sys.model();
    ASSERT_EQ(M.JacRowBegin.size(), M.NumSpecies + 1);
    ASSERT_EQ(M.JacContribBegin.size(), M.jacNonZeros() + 1);
    // Any entry the dense reference can make nonzero must be in the
    // pattern: evaluate at a generic positive state and compare supports.
    std::vector<double> Y = Net.initialState();
    Matrix JRef;
    Sys.analyticJacobianReference(0.0, Y.data(), JRef);
    for (size_t I = 0; I < M.NumSpecies; ++I) {
      for (size_t Jc = 0; Jc < M.NumSpecies; ++Jc) {
        if (JRef(I, Jc) == 0.0)
          continue;
        bool InPattern = false;
        for (uint32_t E = M.JacRowBegin[I]; E < M.JacRowBegin[I + 1]; ++E)
          InPattern |= M.JacCol[E] == Jc;
        EXPECT_TRUE(InPattern)
            << "nonzero (" << I << ", " << Jc << ") missing from pattern";
      }
    }
  }
}

TEST(RhsKernelsTest, CuratedModelsBitExact) {
  expectRhsAndJacobianBitExact(makeRobertsonNetwork(), 1);
  expectRhsAndJacobianBitExact(makeRepressilatorNetwork(), 2);
  expectRhsAndJacobianBitExact(makeSaturatingToyNetwork(), 3);
  expectRhsAndJacobianBitExact(makeDecayChainNetwork(12, 4.0), 4);
  expectRhsAndJacobianBitExact(makeBrusselatorNetwork(), 5);
  expectRhsAndJacobianBitExact(makeLotkaVolterraNetwork(), 6);
}

TEST(RhsKernelsTest, RandomRbmsAllKindsBitExact) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    ReactionNetwork Net = generateRandomRbm(allKindsOptions(Seed));
    expectRhsAndJacobianBitExact(Net, Seed * 977);
  }
}

TEST(RhsKernelsTest, RateConstantSettersKeepPermutedCopyInSync) {
  ReactionNetwork Net = makeSaturatingToyNetwork();
  CompiledOdeSystem Sys(Net);
  const size_t N = Sys.dimension();
  std::vector<double> Y = Net.initialState();
  std::vector<double> DPart(N), DRef(N);
  auto check = [&] {
    Sys.rhs(0.0, Y.data(), DPart.data());
    Sys.rhsReference(0.0, Y.data(), DRef.data());
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(DPart[I], DRef[I]);
  };
  check();
  for (size_t R = 0; R < Sys.numReactions(); ++R) {
    Sys.setRateConstant(R, 0.25 + static_cast<double>(R));
    check();
  }
  std::vector<double> K(Sys.numReactions());
  for (size_t R = 0; R < K.size(); ++R)
    K[R] = 1.0 / (1.0 + static_cast<double>(R));
  Sys.setRateConstants(K);
  check();
  Sys.setRateConstants(K.data(), K.size());
  check();
  Sys.resetRateConstants();
  check();
  Sys.rebind(Sys.sharedModel());
  check();
}

TEST(RhsKernelsTest, WorkspaceReuseMatchesFreshFill) {
  ReactionNetwork Net = generateRandomRbm(allKindsOptions(7));
  CompiledOdeSystem Sys(Net);
  const size_t N = Sys.dimension();
  auto States = probeStates(Net, 99);
  Matrix Reused, Fresh;
  for (const std::vector<double> &Y : States) {
    // Reused carries the pattern claim across calls; Fresh is resized
    // (zero-filled) every time. They must agree bit-for-bit, including
    // all non-pattern zeros.
    Sys.analyticJacobian(0.0, Y.data(), Reused);
    Matrix Clean;
    Sys.analyticJacobian(0.0, Y.data(), Clean);
    EXPECT_TRUE(Reused == Clean);
  }
  // Interleaving a dense finite-difference fill into the same workspace
  // must not poison later pattern-scoped fills: numericJacobian writes
  // every entry and releases the claim, so the next analytic call
  // re-zeros.
  std::vector<double> Y = Net.initialState();
  std::vector<double> F0(N);
  Sys.rhs(0.0, Y.data(), F0.data());
  RhsFunction Callback = [&Sys](double T, const double *State, double *DyDt) {
    Sys.rhs(T, State, DyDt);
  };
  numericJacobian(Callback, 0.0, Y.data(), F0.data(), N, Reused);
  Sys.analyticJacobian(0.0, Y.data(), Reused);
  Sys.analyticJacobian(0.0, Y.data(), Fresh);
  EXPECT_TRUE(Reused == Fresh);
}

TEST(RhsKernelsTest, WorkspaceSharedAcrossViewsStaysCorrect) {
  // One Newton workspace serving two different systems back-to-back (the
  // reused-driver pattern in batch dispatch): each view's claim must
  // invalidate the other's, so stale pattern entries never leak.
  ReactionNetwork NetA = generateRandomRbm(allKindsOptions(13));
  ReactionNetwork NetB = makeRepressilatorNetwork();
  CompiledOdeSystem SysA(NetA), SysB(NetB);
  const std::vector<double> YA = NetA.initialState();
  const std::vector<double> YB = NetB.initialState();
  std::pair<CompiledOdeSystem *, const std::vector<double> *> Views[] = {
      {&SysA, &YA}, {&SysB, &YB}};
  Matrix Workspace;
  for (int Round = 0; Round < 3; ++Round) {
    for (auto &[Sys, Y] : Views) {
      Sys->analyticJacobian(0.0, Y->data(), Workspace);
      Matrix Clean;
      Sys->analyticJacobian(0.0, Y->data(), Clean);
      ASSERT_TRUE(Workspace == Clean) << "round " << Round;
    }
  }
}

TEST(MatrixPatternClaimTest, ClaimLifecycle) {
  Matrix M;
  const int OwnerA = 0, OwnerB = 0;
  // First claim allocates and zero-fills.
  EXPECT_FALSE(M.claimPattern(&OwnerA, 1, 3, 3));
  M(0, 0) = 7.0;
  // Matching re-claim preserves contents.
  EXPECT_TRUE(M.claimPattern(&OwnerA, 1, 3, 3));
  EXPECT_EQ(M(0, 0), 7.0);
  // Epoch bump, owner change, or shape change all reset.
  EXPECT_FALSE(M.claimPattern(&OwnerA, 2, 3, 3));
  EXPECT_EQ(M(0, 0), 0.0);
  M(0, 0) = 7.0;
  EXPECT_FALSE(M.claimPattern(&OwnerB, 2, 3, 3));
  EXPECT_EQ(M(0, 0), 0.0);
  M(1, 1) = 5.0;
  EXPECT_FALSE(M.claimPattern(&OwnerB, 2, 4, 4));
  EXPECT_EQ(M(1, 1), 0.0);
  // resize / ensureShape / setZero drop the claim.
  EXPECT_TRUE(M.claimPattern(&OwnerB, 2, 4, 4));
  M.resize(4, 4);
  EXPECT_FALSE(M.claimPattern(&OwnerB, 2, 4, 4));
  M.ensureShape(4, 4);
  EXPECT_FALSE(M.claimPattern(&OwnerB, 2, 4, 4));
  M.setZero();
  EXPECT_FALSE(M.claimPattern(&OwnerB, 2, 4, 4));
}

TEST(MatrixPatternClaimTest, EnsureShapeKeepsContentsOnMatch) {
  Matrix M(2, 2);
  M(0, 1) = 3.5;
  M.ensureShape(2, 2);
  EXPECT_EQ(M(0, 1), 3.5); // No zero-fill on matching shape.
  M.ensureShape(3, 2);
  EXPECT_EQ(M.rows(), 3u);
  EXPECT_EQ(M(0, 1), 0.0); // Real reshape zero-fills.
}

TEST(RhsKernelsTest, StiffTrajectoriesBitExactAcrossKernelPaths) {
  // End-to-end through the stiff solvers: the partitioned kernels must
  // leave every accepted step — and therefore the final state — exactly
  // where the reference kernels put it.
  std::vector<ReactionNetwork> Nets;
  Nets.push_back(makeRobertsonNetwork());
  Nets.push_back(makeRepressilatorNetwork());
  for (const char *SolverName : {"lsoda", "bdf", "radau5"}) {
    for (const ReactionNetwork &Net : Nets) {
      SolverOptions Opts;
      Opts.MaxSteps = 200000;
      auto Solver = createSolver(SolverName);
      ASSERT_TRUE(Solver.ok());
      CompiledOdeSystem Sys(Net);

      std::vector<double> YKernels = Net.initialState();
      IntegrationResult RK = (*Solver)->integrate(Sys, 0.0, 20.0, YKernels,
                                                  Opts, nullptr);

      ReferenceKernelsScope Ref(true);
      std::vector<double> YRef = Net.initialState();
      IntegrationResult RR =
          (*Solver)->integrate(Sys, 0.0, 20.0, YRef, Opts, nullptr);

      ASSERT_EQ(RK.Status, RR.Status) << SolverName << " " << Net.name();
      for (size_t I = 0; I < YKernels.size(); ++I)
        EXPECT_EQ(YKernels[I], YRef[I])
            << SolverName << " " << Net.name() << " component " << I;
      EXPECT_EQ(RK.Stats.AcceptedSteps, RR.Stats.AcceptedSteps);
      EXPECT_EQ(RK.Stats.JacobianEvaluations, RR.Stats.JacobianEvaluations);
    }
  }
}

TEST(RhsKernelsOracleTest, AllPersonalitiesBitExactVsReferenceKernels) {
  // The satellite oracle: every simulator personality, run twice over the
  // same Hill-heavy varied batch — once through the kind-partitioned
  // kernels, once through the reference kernels — must produce
  // bit-identical outcomes (trajectories, counters, solver identities).
  ReactionNetwork Net = makeRepressilatorNetwork();
  BatchSpec Spec;
  Spec.Model = &Net;
  Spec.Batch = 6;
  Spec.EndTime = 8.0;
  Spec.OutputSamples = 7;
  Spec.Options.MaxSteps = 500000;
  Rng Gen(2024);
  CompiledOdeSystem Proto(Net);
  for (uint64_t S = 0; S < Spec.Batch; ++S) {
    std::vector<double> K = Proto.model().DefaultConstants;
    perturbRateConstants(K, Gen);
    Spec.RateConstantSets.push_back(std::move(K));
  }

  CostModel Model = CostModel::paperSetup();
  auto Sims = createAllSimulators(Model);
  ASSERT_EQ(Sims.size(), 5u);
  for (auto &Sim : Sims) {
    BatchResult Kernels = Sim->run(Spec);
    BatchResult Reference;
    {
      ReferenceKernelsScope Ref(true);
      Reference = Sim->run(Spec);
    }
    Status Same = compareBatchesBitExact(Kernels, Reference);
    EXPECT_TRUE(Same.ok()) << Sim->name() << ": " << Same.message();
  }
}
