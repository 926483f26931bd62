//===- tests/linalg_test.cpp - psg_linalg unit tests ----------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "linalg/Jacobian.h"
#include "linalg/Lu.h"
#include "linalg/Matrix.h"
#include "linalg/VectorOps.h"
#include "ode/Radau5.h"
#include "rbm/CuratedModels.h"
#include "rbm/MassAction.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>

using namespace psg;

//===----------------------------------------------------------------------===//
// Matrix basics.
//===----------------------------------------------------------------------===//

TEST(MatrixTest, ConstructionZeroFills) {
  Matrix M(2, 3);
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 3u);
  for (size_t R = 0; R < 2; ++R)
    for (size_t C = 0; C < 3; ++C)
      EXPECT_EQ(M(R, C), 0.0);
}

TEST(MatrixTest, IdentityAndMultiply) {
  Matrix I = Matrix::identity(4);
  double X[4] = {1, -2, 3, -4};
  double Y[4];
  I.multiply(X, Y);
  for (int K = 0; K < 4; ++K)
    EXPECT_DOUBLE_EQ(Y[K], X[K]);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix M(2, 2);
  M(0, 0) = 1;
  M(0, 1) = 2;
  M(1, 0) = 3;
  M(1, 1) = 4;
  double X[2] = {5, 6};
  double Y[2];
  M.multiply(X, Y);
  EXPECT_DOUBLE_EQ(Y[0], 17.0);
  EXPECT_DOUBLE_EQ(Y[1], 39.0);
}

TEST(MatrixTest, AddScaled) {
  Matrix A(2, 2), B(2, 2);
  A(0, 0) = 1;
  B(0, 0) = 2;
  B(1, 1) = 4;
  A.addScaled(B, 0.5);
  EXPECT_DOUBLE_EQ(A(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(A(1, 1), 2.0);
}

TEST(MatrixTest, Norms) {
  Matrix M(2, 2);
  M(0, 0) = 3;
  M(0, 1) = -4;
  M(1, 0) = 1;
  EXPECT_DOUBLE_EQ(infinityNorm(M), 7.0);
  EXPECT_DOUBLE_EQ(frobeniusNorm(M), std::sqrt(9.0 + 16.0 + 1.0));
}

TEST(MatrixTest, ResizeClears) {
  Matrix M(1, 1);
  M(0, 0) = 9;
  M.resize(2, 2);
  EXPECT_EQ(M(0, 0), 0.0);
}

//===----------------------------------------------------------------------===//
// LU factorization.
//===----------------------------------------------------------------------===//

TEST(LuTest, SolvesKnown2x2) {
  Matrix A(2, 2);
  A(0, 0) = 2;
  A(0, 1) = 1;
  A(1, 0) = 1;
  A(1, 1) = 3;
  RealLu Lu;
  ASSERT_TRUE(Lu.factor(A));
  double B[2] = {5, 10};
  Lu.solve(B);
  EXPECT_NEAR(B[0], 1.0, 1e-12);
  EXPECT_NEAR(B[1], 3.0, 1e-12);
}

TEST(LuTest, DetectsSingularMatrix) {
  Matrix A(2, 2);
  A(0, 0) = 1;
  A(0, 1) = 2;
  A(1, 0) = 2;
  A(1, 1) = 4;
  RealLu Lu;
  EXPECT_FALSE(Lu.factor(A));
  EXPECT_FALSE(Lu.valid());
}

TEST(LuTest, PivotingHandlesZeroDiagonal) {
  Matrix A(2, 2);
  A(0, 0) = 0;
  A(0, 1) = 1;
  A(1, 0) = 1;
  A(1, 1) = 0;
  RealLu Lu;
  ASSERT_TRUE(Lu.factor(A));
  double B[2] = {3, 7};
  Lu.solve(B);
  EXPECT_NEAR(B[0], 7.0, 1e-14);
  EXPECT_NEAR(B[1], 3.0, 1e-14);
}

TEST(LuTest, Determinant) {
  Matrix A(3, 3);
  A(0, 0) = 2;
  A(1, 1) = 3;
  A(2, 2) = 4;
  A(0, 2) = 1;
  RealLu Lu;
  ASSERT_TRUE(Lu.factor(A));
  EXPECT_NEAR(Lu.determinant(), 24.0, 1e-12);
}

TEST(LuTest, ComplexSolve) {
  ComplexMatrix A(2, 2);
  A(0, 0) = {1, 1};
  A(0, 1) = {0, 0};
  A(1, 0) = {0, 0};
  A(1, 1) = {0, 2};
  ComplexLu Lu;
  ASSERT_TRUE(Lu.factor(A));
  std::complex<double> B[2] = {{2, 0}, {4, 0}};
  Lu.solve(B);
  // (1+i) x = 2 -> x = 1 - i ; (2i) y = 4 -> y = -2i.
  EXPECT_NEAR(B[0].real(), 1.0, 1e-14);
  EXPECT_NEAR(B[0].imag(), -1.0, 1e-14);
  EXPECT_NEAR(B[1].real(), 0.0, 1e-14);
  EXPECT_NEAR(B[1].imag(), -2.0, 1e-14);
}

/// Property: random diagonally dominant systems solve to high accuracy.
class LuRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LuRandomTest, ResidualIsTiny) {
  const size_t N = GetParam();
  Rng R(1000 + N);
  Matrix A(N, N);
  for (size_t I = 0; I < N; ++I) {
    double RowSum = 0;
    for (size_t J = 0; J < N; ++J)
      if (I != J) {
        A(I, J) = R.uniform(-1, 1);
        RowSum += std::abs(A(I, J));
      }
    A(I, I) = RowSum + 1.0; // Diagonally dominant -> nonsingular.
  }
  std::vector<double> X(N), B(N), BCopy;
  for (size_t I = 0; I < N; ++I)
    X[I] = R.uniform(-5, 5);
  A.multiply(X.data(), B.data());
  BCopy = B;
  RealLu Lu;
  ASSERT_TRUE(Lu.factor(A));
  Lu.solve(B.data());
  for (size_t I = 0; I < N; ++I)
    EXPECT_NEAR(B[I], X[I], 1e-9 * (1.0 + std::abs(X[I])));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 128));

//===----------------------------------------------------------------------===//
// Vector kernels.
//===----------------------------------------------------------------------===//

TEST(VectorOpsTest, WeightedRmsNormMatchesHandComputation) {
  double V[2] = {1e-6, 2e-6};
  double Scale[2] = {1.0, 1.0};
  // Weights = 1e-12 + 1e-6*1 ~ 1e-6; errors = 1, 2; rms = sqrt(5/2).
  const double Norm = weightedRmsNorm(V, Scale, 2, 1e-12, 1e-6);
  EXPECT_NEAR(Norm, std::sqrt(2.5), 1e-4);
}

TEST(VectorOpsTest, WeightedRmsNorm2UsesLargerScale) {
  double V[1] = {1.0};
  double A[1] = {1.0}, B[1] = {100.0};
  const double Norm = weightedRmsNorm2(V, A, B, 1, 0.0, 1.0);
  EXPECT_NEAR(Norm, 0.01, 1e-12);
}

TEST(VectorOpsTest, AxpyAndDotAndNorms) {
  double X[3] = {1, 2, 3};
  double Y[3] = {1, 1, 1};
  axpy(2.0, X, Y, 3);
  EXPECT_DOUBLE_EQ(Y[0], 3.0);
  EXPECT_DOUBLE_EQ(Y[2], 7.0);
  EXPECT_DOUBLE_EQ(dot(X, X, 3), 14.0);
  EXPECT_DOUBLE_EQ(norm2(X, 3), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(normInf(Y, 3), 7.0);
}

TEST(VectorOpsTest, AllFiniteDetectsNanAndInf) {
  std::vector<double> V = {1.0, 2.0};
  EXPECT_TRUE(allFinite(V));
  V.push_back(std::nan(""));
  EXPECT_FALSE(allFinite(V));
  V.back() = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(allFinite(V));
}

//===----------------------------------------------------------------------===//
// Jacobian and eigen estimates.
//===----------------------------------------------------------------------===//

TEST(JacobianTest, MatchesAnalyticDerivativeOfPolynomialSystem) {
  // f0 = x^2 + y, f1 = 3xy.
  RhsFunction F = [](double, const double *Y, double *D) {
    D[0] = Y[0] * Y[0] + Y[1];
    D[1] = 3.0 * Y[0] * Y[1];
  };
  double Y[2] = {2.0, -1.0};
  double F0[2];
  F(0, Y, F0);
  Matrix J;
  const size_t Evals = numericJacobian(F, 0.0, Y, F0, 2, J);
  EXPECT_EQ(Evals, 2u);
  EXPECT_NEAR(J(0, 0), 4.0, 1e-5);
  EXPECT_NEAR(J(0, 1), 1.0, 1e-5);
  EXPECT_NEAR(J(1, 0), -3.0, 1e-5);
  EXPECT_NEAR(J(1, 1), 6.0, 1e-5);
}

namespace {
/// Max over rows of sum_j |a_ij|: Gershgorin's bound on the spectral
/// radius.
double maxAbsRowSum(const Matrix &A) {
  double Bound = 0.0;
  for (size_t R = 0; R < A.rows(); ++R) {
    double RowSum = 0.0;
    for (size_t C = 0; C < A.cols(); ++C)
      RowSum += std::abs(A(R, C));
    Bound = std::max(Bound, RowSum);
  }
  return Bound;
}

/// The dense power iteration over Matrix::multiply that the sparse one
/// replaced, kept as its bit-exact oracle. \p Matvecs receives the number
/// of products it ran.
double densePowerIteration(const Matrix &A, unsigned MaxIters,
                           double Tolerance, uint64_t &Matvecs) {
  Matvecs = 0;
  const size_t N = A.rows();
  if (N == 0)
    return 0.0;
  std::vector<double> V(N), W(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = 1.0 + 0.001 * static_cast<double>(I % 17);
  double Norm = norm2(V.data(), N);
  for (double &X : V)
    X /= Norm;
  double Estimate = 0.0;
  for (unsigned Iter = 0; Iter < MaxIters; ++Iter) {
    A.multiply(V.data(), W.data());
    ++Matvecs;
    double WNorm = norm2(W.data(), N);
    if (WNorm == 0.0 || !std::isfinite(WNorm))
      return WNorm == 0.0 ? 0.0 : Estimate;
    double Next = WNorm;
    for (size_t I = 0; I < N; ++I)
      V[I] = W[I] / WNorm;
    if (Iter > 0 && std::abs(Next - Estimate) <= Tolerance * Next)
      return Next;
    Estimate = Next;
  }
  return Estimate;
}

/// A nonzero entry: log-uniform magnitude over twelve decades, random
/// sign, and now and then a small integer so rows can cancel exactly.
double randomEntry(Rng &R) {
  const double Sign = R.uniform() < 0.5 ? -1.0 : 1.0;
  if (R.uniform() < 0.2)
    return Sign * static_cast<double>(1 + R.uniformInt(3));
  return Sign * std::pow(10.0, R.uniform(-6, 6));
}
} // namespace

TEST(EigenTest, DiagonalMatrixSpectralRadius) {
  Matrix A(3, 3);
  A(0, 0) = -1;
  A(1, 1) = -50;
  A(2, 2) = 2;
  EXPECT_NEAR(powerIterationSpectralRadius(A, 200, 1e-8), 50.0, 0.5);
  EXPECT_GE(maxAbsRowSum(A), 50.0);
}

TEST(EigenTest, GershgorinBoundsPowerIteration) {
  Rng R(77);
  Matrix A(10, 10);
  for (size_t I = 0; I < 10; ++I)
    for (size_t J = 0; J < 10; ++J)
      A(I, J) = R.uniform(-2, 2);
  const double Rho = powerIterationSpectralRadius(A, 300, 1e-9);
  EXPECT_LE(Rho, maxAbsRowSum(A) + 1e-9);
}

TEST(EigenTest, ZeroMatrixHasZeroRadius) {
  Matrix A(4, 4);
  EXPECT_DOUBLE_EQ(powerIterationSpectralRadius(A), 0.0);
  EXPECT_DOUBLE_EQ(maxAbsRowSum(A), 0.0);
}

TEST(EigenTest, SparseIterationMatchesDenseBits) {
  // The power iteration runs over the matrix's nonzeros; it must return
  // the dense iteration's bits and count the dense iteration's matvecs in
  // psg.linalg.power_iterations, on random, special-valued and Jacobian
  // matrices alike.
  Counter &Matvecs = metrics().counter("psg.linalg.power_iterations");
  size_t Cases = 0, Mismatches = 0;
  auto Check = [&](const Matrix &A, unsigned MaxIters, double Tolerance) {
    uint64_t WantMatvecs = 0;
    const double Want =
        densePowerIteration(A, MaxIters, Tolerance, WantMatvecs);
    const uint64_t Before = Matvecs.value();
    const double Got = powerIterationSpectralRadius(A, MaxIters, Tolerance);
    const uint64_t GotMatvecs = Matvecs.value() - Before;
    ++Cases;
    if (std::bit_cast<uint64_t>(Got) == std::bit_cast<uint64_t>(Want) &&
        GotMatvecs == WantMatvecs)
      return;
    if (++Mismatches <= 5)
      ADD_FAILURE() << "order " << A.rows() << ": " << Got << " vs " << Want
                    << "; matvecs " << GotMatvecs << " vs " << WantMatvecs;
  };
  const double Tolerances[] = {1e-3, 1e-9, 0.0};
  unsigned NextMaxIters = 0;
  auto CheckSweep = [&](const Matrix &A) {
    for (double Tolerance : Tolerances)
      Check(A, 1 + NextMaxIters++ % 60, Tolerance);
    Check(A, 50, 1e-3); // The defaults every caller uses.
  };

  // Seeded random matrices of order 1-40 and density 0-100%, including
  // nilpotent ones whose iterates reach exactly zero.
  Rng R(20261017);
  for (size_t N = 1; N <= 40; ++N)
    for (double Density : {0.0, 0.03, 0.1, 0.3, 0.6, 1.0})
      for (int Rep = 0; Rep < 3; ++Rep) {
        Matrix A(N, N);
        for (size_t I = 0; I < N; ++I)
          for (size_t J = 0; J < N; ++J)
            if (R.uniform() < Density && (Rep != 2 || J > I))
              A(I, J) = randomEntry(R);
        CheckSweep(A);
      }

  // Explicit -0.0, NaN, Inf, subnormal and huge entries among nonzeros.
  using Limits = std::numeric_limits<double>;
  const double Specials[] = {
      -0.0,
      0.0,
      Limits::quiet_NaN(),
      Limits::infinity(),
      -Limits::infinity(),
      Limits::denorm_min(),
      -3 * Limits::denorm_min(),
      Limits::min() / 8,
      Limits::max(),
  };
  for (size_t N = 1; N <= 12; ++N)
    for (double Special : Specials)
      for (int Rep = 0; Rep < 4; ++Rep) {
        Matrix A(N, N);
        for (size_t I = 0; I < N; ++I)
          for (size_t J = 0; J < N; ++J)
            if (R.uniform() < 0.5)
              A(I, J) = randomEntry(R);
        const uint64_t Count = 1 + R.uniformInt(3);
        for (uint64_t K = 0; K < Count; ++K)
          A(R.uniformInt(N), R.uniformInt(N)) = Special;
        if (Rep == 3) // A matrix of nothing but the special value.
          for (size_t I = 0; I < N; ++I)
            for (size_t J = 0; J < N; ++J)
              A(I, J) = Special;
        CheckSweep(A);
      }

  // Jacobians of the engine's models at perturbed states and rate
  // constants: the metabolic and autophagy surrogates and a decay chain.
  const ReactionNetwork Nets[] = {
      makeMetabolicSurrogate().Net,
      makeAutophagySurrogate(16, 8).Net,
      makeDecayChainNetwork(12, 6.0),
  };
  for (const ReactionNetwork &Net : Nets) {
    CompiledOdeSystem Sys(Net);
    const std::vector<double> Y0 = Net.initialState();
    const std::vector<double> K0 = Sys.rateConstants();
    for (int Trial = 0; Trial < 20; ++Trial) {
      std::vector<double> Y = Y0, K = K0;
      if (Trial > 0) {
        for (double &X : Y)
          X = R.uniform() < 0.1 ? 0.0 : X * std::exp(R.uniform(-2, 2));
        for (double &X : K)
          X *= std::exp(R.uniform(-3, 3));
      }
      Sys.setRateConstants(K);
      std::vector<double> F0(Y.size());
      Sys.rhs(0.0, Y.data(), F0.data());
      Matrix J;
      Sys.jacobian(0.0, Y.data(), F0.data(), J);
      CheckSweep(J);
    }
  }

  EXPECT_EQ(Mismatches, 0u) << "of " << Cases << " cases";
  EXPECT_GT(Cases, 4000u);
}

//===----------------------------------------------------------------------===//
// Structured LU against the dense oracle.
//===----------------------------------------------------------------------===//

namespace {
/// The dense LU that the structured one replaced, kept as its bit-exact
/// oracle: the same pivoting, every update over the whole row right of the
/// pivot, every substitution over the whole triangle.
template <typename T> struct DenseLuOracle {
  DenseMatrix<T> Lu;
  std::vector<size_t> Pivot;
  int PivotSign = 1;

  bool factor(const DenseMatrix<T> &A) {
    Lu = A;
    const size_t N = Lu.rows();
    Pivot.resize(N);
    PivotSign = 1;
    for (size_t K = 0; K < N; ++K) {
      size_t Best = K;
      double BestMag = std::abs(Lu(K, K));
      for (size_t R = K + 1; R < N; ++R) {
        double Mag = std::abs(Lu(R, K));
        if (Mag > BestMag) {
          BestMag = Mag;
          Best = R;
        }
      }
      Pivot[K] = Best;
      if (Best != K) {
        PivotSign = -PivotSign;
        for (size_t C = 0; C < N; ++C)
          std::swap(Lu(K, C), Lu(Best, C));
      }
      if (BestMag == 0.0)
        return false;
      const T PivotValue = Lu(K, K);
      for (size_t R = K + 1; R < N; ++R) {
        T Factor = Lu(R, K) / PivotValue;
        Lu(R, K) = Factor;
        if (Factor == T{})
          continue;
        for (size_t C = K + 1; C < N; ++C)
          Lu(R, C) -= Factor * Lu(K, C);
      }
    }
    return true;
  }

  void solve(T *B) const {
    const size_t N = Lu.rows();
    for (size_t K = 0; K < N; ++K)
      if (Pivot[K] != K)
        std::swap(B[K], B[Pivot[K]]);
    for (size_t R = 1; R < N; ++R) {
      T Sum = B[R];
      for (size_t C = 0; C < R; ++C)
        Sum -= Lu(R, C) * B[C];
      B[R] = Sum;
    }
    for (size_t RI = N; RI-- > 0;) {
      T Sum = B[RI];
      for (size_t C = RI + 1; C < N; ++C)
        Sum -= Lu(RI, C) * B[C];
      B[RI] = Sum / Lu(RI, RI);
    }
  }

  T determinant() const {
    T Det = static_cast<T>(PivotSign);
    for (size_t K = 0; K < Lu.rows(); ++K)
      Det *= Lu(K, K);
    return Det;
  }
};

bool sameBits(double A, double B) {
  return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
}
bool sameBits(const std::complex<double> &A, const std::complex<double> &B) {
  return sameBits(A.real(), B.real()) && sameBits(A.imag(), B.imag());
}

using Complex = std::complex<double>;

/// A random nonzero element; a complex one has a zero component now and
/// then.
template <typename T> T randomElement(Rng &R) {
  if constexpr (std::is_same_v<T, double>) {
    return randomEntry(R);
  } else {
    const double U = R.uniform();
    if (U < 0.15)
      return {randomEntry(R), 0.0};
    if (U < 0.3)
      return {0.0, randomEntry(R)};
    return {randomEntry(R), randomEntry(R)};
  }
}

/// A zero of random sign (per component for complex).
template <typename T> T signedZero(Rng &R) {
  auto Zero = [&] { return R.uniform() < 0.5 ? -0.0 : 0.0; };
  if constexpr (std::is_same_v<T, double>)
    return Zero();
  else
    return {Zero(), Zero()};
}

/// An element that carries \p Special; a complex one carries it in one
/// component, next to a zero or a random other component.
template <typename T> T specialElement(Rng &R, double Special) {
  if constexpr (std::is_same_v<T, double>) {
    return Special;
  } else {
    const double Other = R.uniform() < 0.5 ? 0.0 : randomEntry(R);
    return R.uniform() < 0.5 ? Complex(Special, Other)
                             : Complex(Other, Special);
  }
}

template <typename T>
DenseMatrix<T> randomMatrix(Rng &R, size_t N, double Density) {
  DenseMatrix<T> A(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (R.uniform() < Density)
        A(I, J) = randomElement<T>(R);
  return A;
}

/// Makes every diagonal entry outweigh its row, with sign \p Sign.
template <typename T> void shiftDiagonal(DenseMatrix<T> &A, double Sign) {
  for (size_t I = 0; I < A.rows(); ++I) {
    double RowSum = 1.0;
    for (size_t J = 0; J < A.cols(); ++J)
      if (J != I)
        RowSum += std::abs(A(I, J));
    A(I, I) = static_cast<T>(Sign * RowSum);
  }
}

/// Right-hand sides: dense random, sparse with signed zeros, all signed
/// zeros, and a unit vector.
template <typename T>
std::vector<std::vector<T>> randomRhs(Rng &R, size_t N) {
  std::vector<std::vector<T>> Out(4, std::vector<T>(N));
  for (size_t I = 0; I < N; ++I) {
    Out[0][I] = randomElement<T>(R);
    Out[1][I] = R.uniform() < 0.3 ? randomElement<T>(R) : signedZero<T>(R);
    Out[2][I] = signedZero<T>(R);
  }
  Out[3][R.uniformInt(N)] = randomElement<T>(R);
  return Out;
}
} // namespace

TEST(LuTest, StructuredFactorMatchesDenseBits) {
  // The structured LU must return the dense LU's bits: factor()'s result,
  // the determinant and every solved component, in real and complex, on
  // random, singular, special-valued and Newton matrices alike.
  size_t Factorizations = 0, Solves = 0, Mismatches = 0;
  auto Check = [&]<typename T>(const char *Family, const DenseMatrix<T> &A,
                               const std::vector<std::vector<T>> &Rhs) {
    DenseLuOracle<T> Want;
    LuDecomposition<T> Got;
    const bool WantOk = Want.factor(A);
    const bool GotOk = Got.factor(A);
    ++Factorizations;
    std::string Diff;
    if (GotOk != WantOk)
      Diff = std::string("factor() returned ") + (GotOk ? "true" : "false");
    else if (WantOk && !sameBits(Got.determinant(), Want.determinant()))
      Diff = "determinant differs";
    for (size_t I = 0; WantOk && GotOk && I < Rhs.size(); ++I) {
      std::vector<T> X = Rhs[I], Y = Rhs[I];
      Want.solve(X.data());
      Got.solve(Y.data());
      ++Solves;
      for (size_t K = 0; K < X.size() && Diff.empty(); ++K)
        if (!sameBits(Y[K], X[K]))
          Diff = "right-hand side " + std::to_string(I) + ", component " +
                 std::to_string(K) + " differs";
    }
    if (!Diff.empty() && ++Mismatches <= 5)
      ADD_FAILURE() << Family << " of order " << A.rows() << ": " << Diff;
  };
  Rng R(20261018);

  // Seeded matrices of order 1-40 and density 2-100%: unshifted (row
  // swaps), diagonally shifted to positive and to negative pivots (the
  // negative ones divide zeros to -0), and with a zeroed row (singular).
  auto CheckRandom = [&]<typename T>(T) {
    for (size_t N = 1; N <= 40; ++N)
      for (double Density : {0.02, 0.05, 0.1, 0.3, 0.6, 1.0})
        for (int Variant = 0; Variant < 12; ++Variant) {
          DenseMatrix<T> A = randomMatrix<T>(R, N, Density);
          if (Variant % 4 == 1 || Variant % 4 == 2)
            shiftDiagonal(A, Variant % 4 == 1 ? 1.0 : -1.0);
          if (Variant % 4 == 3) {
            shiftDiagonal(A, R.uniform() < 0.5 ? 1.0 : -1.0);
            const size_t Row = R.uniformInt(N);
            for (size_t J = 0; J < N; ++J)
              A(Row, J) = T{};
          }
          Check("random matrix", A, randomRhs<T>(R, N));
        }
  };
  CheckRandom(0.0);
  CheckRandom(Complex());

  // Complex matrices of purely real and purely imaginary entries: their
  // products have zero components, whose signs then reach the results.
  // Half of them hold only +0 components (the structured path), half
  // zeros of random sign next to nonzeros (an input -0 in any component
  // must run every update dense).
  for (size_t N = 1; N <= 12; ++N)
    for (int Rep = 0; Rep < 200; ++Rep) {
      const bool SignedZeros = Rep % 2 == 1;
      auto Element = [&] {
        const double Zero = SignedZeros ? signedZero<double>(R) : 0.0;
        const double Value = randomEntry(R);
        return R.uniform() < 0.5 ? Complex(Value, Zero) : Complex(Zero, Value);
      };
      ComplexMatrix A(N, N);
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          if (R.uniform() < 0.5)
            A(I, J) = Element();
      std::vector<std::vector<Complex>> Rhs = randomRhs<Complex>(R, N);
      Rhs.emplace_back(N);
      for (Complex &X : Rhs.back())
        X = R.uniform() < 0.5 ? Element() : signedZero<Complex>(R);
      Check("complex matrix of real and imaginary entries", A, Rhs);
    }

  // -0.0, NaN, ±Inf, subnormal and DBL_MAX entries, in A and separately
  // in B, where B's first entry gets its own case: the forward pass reads
  // it without ever rewriting it.
  using Limits = std::numeric_limits<double>;
  const double Specials[] = {
      -0.0,
      Limits::quiet_NaN(),
      Limits::infinity(),
      -Limits::infinity(),
      Limits::denorm_min(),
      -3 * Limits::denorm_min(),
      Limits::min() / 8,
      Limits::max(),
      -Limits::max(),
  };
  auto CheckSpecials = [&]<typename T>(T) {
    for (size_t N = 1; N <= 20; ++N)
      for (double Special : Specials)
        for (int Rep = 0; Rep < 12; ++Rep) {
          DenseMatrix<T> A = randomMatrix<T>(R, N, 0.3);
          if (Rep % 3 != 0)
            shiftDiagonal(A, Rep % 3 == 1 ? 1.0 : -1.0);
          DenseMatrix<T> WithSpecial = A;
          const uint64_t Count = 1 + R.uniformInt(3);
          for (uint64_t I = 0; I < Count; ++I)
            WithSpecial(R.uniformInt(N), R.uniformInt(N)) =
                specialElement<T>(R, Special);
          Check("matrix with special entries", WithSpecial,
                randomRhs<T>(R, N));

          std::vector<std::vector<T>> Rhs = randomRhs<T>(R, N);
          for (std::vector<T> &B : Rhs) {
            B[R.uniformInt(N)] = specialElement<T>(R, Special);
            if (R.uniform() < 0.5)
              B[R.uniformInt(N)] = specialElement<T>(R, Special);
          }
          Rhs.push_back(randomRhs<T>(R, N)[0]);
          Rhs.back()[0] = specialElement<T>(R, Special);
          Check("right-hand side with special entries", A, Rhs);
        }
  };
  CheckSpecials(0.0);
  CheckSpecials(Complex());

  // Newton matrices of the implicit solvers, I - h*beta*J (BDF, LSODA,
  // VODE) and gamma/h*I - J, (alpha + i*beta)/h*I - J (RADAU5), from
  // Jacobians of the metabolic and autophagy surrogates and a decay chain
  // at perturbed states and rate constants.
  const ReactionNetwork Nets[] = {
      makeMetabolicSurrogate().Net,
      makeAutophagySurrogate(16, 8).Net,
      makeDecayChainNetwork(12, 6.0),
  };
  const double Gamma = radau5detail::gammaReal();
  const double Alpha = radau5detail::alphaComplex();
  const double Beta = radau5detail::betaComplex();
  for (const ReactionNetwork &Net : Nets) {
    CompiledOdeSystem Sys(Net);
    const size_t N = Net.numSpecies();
    const std::vector<double> Y0 = Net.initialState();
    const std::vector<double> K0 = Sys.rateConstants();
    for (int Trial = 0; Trial < 10; ++Trial) {
      std::vector<double> Y = Y0, K = K0;
      if (Trial > 0) {
        for (double &X : Y)
          X = R.uniform() < 0.1 ? 0.0 : X * std::exp(R.uniform(-2, 2));
        for (double &X : K)
          X *= std::exp(R.uniform(-3, 3));
      }
      Sys.setRateConstants(K);
      std::vector<double> F0(N);
      Sys.rhs(0.0, Y.data(), F0.data());
      Matrix J;
      Sys.jacobian(0.0, Y.data(), F0.data(), J);
      for (double H : {1e-6, 1e-3, 0.1, 10.0}) {
        Matrix Bdf(N, N), E1(N, N);
        ComplexMatrix E2(N, N);
        for (size_t I = 0; I < N; ++I)
          for (size_t C = 0; C < N; ++C) {
            Bdf(I, C) = (I == C ? 1.0 : 0.0) - H * (2.0 / 3.0) * J(I, C);
            E1(I, C) = (I == C ? Gamma / H : 0.0) - J(I, C);
            E2(I, C) = Complex((I == C ? Alpha / H : 0.0) - J(I, C),
                               I == C ? Beta / H : 0.0);
          }
        Check("BDF Newton matrix", Bdf, randomRhs<double>(R, N));
        Check("RADAU5 real Newton matrix", E1, randomRhs<double>(R, N));
        Check("RADAU5 complex Newton matrix", E2, randomRhs<Complex>(R, N));
      }
    }
  }

  EXPECT_EQ(Mismatches, 0u) << "of " << Factorizations
                            << " factorizations and " << Solves << " solves";
  EXPECT_GT(Factorizations, 17000u);
  EXPECT_GT(Solves, 55000u);
}

//===----------------------------------------------------------------------===//
// Newton matrices over a sparsity pattern against the dense oracle.
//===----------------------------------------------------------------------===//

namespace {
/// A sparsity pattern with its own storage and a fresh id.
struct OwnedPattern {
  std::vector<uint32_t> RowBegin{0}, Cols;
  SparsityPattern View;

  /// Row I holds column C with probability \p Density.
  OwnedPattern(Rng &R, size_t N, double Density) {
    for (size_t I = 0; I < N; ++I) {
      for (size_t C = 0; C < N; ++C)
        if (R.uniform() < Density)
          Cols.push_back(static_cast<uint32_t>(C));
      RowBegin.push_back(static_cast<uint32_t>(Cols.size()));
    }
    bind();
  }

  /// The same row lengths as \p Other, on other random columns.
  OwnedPattern(Rng &R, const OwnedPattern &Other) {
    const size_t N = Other.View.Order;
    for (size_t I = 0; I < N; ++I) {
      std::vector<uint32_t> All(N);
      for (size_t C = 0; C < N; ++C)
        All[C] = static_cast<uint32_t>(C);
      for (size_t C = N; C > 1; --C)
        std::swap(All[C - 1], All[R.uniformInt(C)]);
      All.resize(Other.RowBegin[I + 1] - Other.RowBegin[I]);
      std::sort(All.begin(), All.end());
      Cols.insert(Cols.end(), All.begin(), All.end());
      RowBegin.push_back(static_cast<uint32_t>(Cols.size()));
    }
    bind();
  }

  OwnedPattern(const OwnedPattern &) = delete;
  OwnedPattern &operator=(const OwnedPattern &) = delete;

  void bind() {
    View = {RowBegin.size() - 1, RowBegin.data(), Cols.data(),
            nextPatternEpoch()};
  }
};

/// A Jacobian that is +0 outside \p P and random inside it, where a
/// fraction \p Zeros of the entries stays +0 too.
Matrix randomJacobian(Rng &R, const OwnedPattern &P, double Zeros) {
  const size_t N = P.View.Order;
  Matrix J(N, N);
  for (size_t I = 0; I < N; ++I)
    for (uint32_t E = P.RowBegin[I]; E < P.RowBegin[I + 1]; ++E)
      if (R.uniform() >= Zeros)
        J(I, P.Cols[E]) = randomEntry(R);
  return J;
}

/// Shift*I - Scale*J as the solvers formed it before factorShifted().
template <typename T>
DenseMatrix<T> formNewton(T Shift, double Scale, const Matrix &J) {
  const size_t N = J.rows();
  DenseMatrix<T> M(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t C = 0; C < N; ++C) {
      if constexpr (std::is_same_v<T, double>)
        M(I, C) = (I == C ? Shift : 0.0) - Scale * J(I, C);
      else
        M(I, C) = Complex((I == C ? Shift.real() : 0.0) - Scale * J(I, C),
                          I == C ? Shift.imag() : 0.0);
    }
  return M;
}

/// Compares factorShifted() on \p Got with the dense oracle on the formed
/// matrix: the return value, the determinant and every solved component.
/// Returns a description of the first difference, empty when none.
template <typename T>
std::string compareNewton(LuDecomposition<T> &Got, T Shift, double Scale,
                          const Matrix &J, const SparsityPattern *P,
                          const std::vector<std::vector<T>> &Rhs) {
  DenseLuOracle<T> Want;
  const bool WantOk = Want.factor(formNewton(Shift, Scale, J));
  const bool GotOk = Got.factorShifted(Shift, Scale, J, P);
  if (GotOk != WantOk)
    return std::string("factorShifted() returned ") +
           (GotOk ? "true" : "false");
  if (!WantOk)
    return {};
  if (!sameBits(Got.determinant(), Want.determinant()))
    return "determinant differs";
  for (size_t I = 0; I < Rhs.size(); ++I) {
    std::vector<T> X = Rhs[I], Y = Rhs[I];
    Want.solve(X.data());
    Got.solve(Y.data());
    for (size_t K = 0; K < X.size(); ++K)
      if (!sameBits(Y[K], X[K]))
        return "right-hand side " + std::to_string(I) + ", component " +
               std::to_string(K) + " differs";
  }
  return {};
}

/// randomRhs() for a nonempty system, no right-hand side for an empty one.
template <typename T>
std::vector<std::vector<T>> newtonRhs(Rng &R, size_t N) {
  return N == 0 ? std::vector<std::vector<T>>() : randomRhs<T>(R, N);
}

/// A shift of random sign and magnitude; a complex one has a random sign
/// per component and now and then a zero imaginary part.
template <typename T> T randomShift(Rng &R) {
  if constexpr (std::is_same_v<T, double>)
    return randomEntry(R);
  else
    return {randomEntry(R), R.uniform() < 0.2 ? 0.0 : randomEntry(R)};
}

/// A shift of magnitude 0.1-10 and random sign (per component).
template <typename T> T unitShift(Rng &R) {
  auto Draw = [&] {
    return (R.uniform() < 0.5 ? -1.0 : 1.0) * std::pow(10.0, R.uniform(-1, 1));
  };
  if constexpr (std::is_same_v<T, double>)
    return Draw();
  else
    return {Draw(), R.uniform() < 0.2 ? 0.0 : Draw()};
}
} // namespace

TEST(LuTest, PatternFactorMatchesDenseBits) {
  // factorShifted() over a pattern must return the bits factor() returns
  // on the formed Newton matrix, on every kind of matrix, including those
  // that fall back: row swaps, negative pivots (zero quotients), singular
  // columns, special values in J, and special Shifts and Scales. One
  // LuDecomposition per element type serves the whole sweep and factors
  // each pattern several times, as a solver does.
  size_t Factorizations = 0, Mismatches = 0;
  const uint64_t FallbacksBefore =
      metrics().snapshot().counterValue("psg.linalg.lu_pattern_fallbacks");
  LuDecomposition<double> RealGot;
  LuDecomposition<Complex> ComplexGot;
  auto Check = [&]<typename T>(const char *Family, LuDecomposition<T> &Got,
                               T Shift, double Scale, const Matrix &J,
                               const SparsityPattern *P) {
    Rng RhsRng(Factorizations);
    const std::string Diff =
        compareNewton(Got, Shift, Scale, J, P, newtonRhs<T>(RhsRng, J.rows()));
    ++Factorizations;
    if (!Diff.empty() && ++Mismatches <= 5)
      ADD_FAILURE() << Family << " of order " << J.rows() << ": " << Diff;
  };
  Rng R(20261018);
  using Limits = std::numeric_limits<double>;
  const double Specials[] = {
      -0.0,
      Limits::quiet_NaN(),
      Limits::infinity(),
      -Limits::infinity(),
      Limits::denorm_min(),
      -3 * Limits::denorm_min(),
      Limits::min() / 8,
      Limits::max(),
      -Limits::max(),
  };

  // Seeded patterns of order 0-40 and density 2-100%. Most variants keep
  // the shift near 1 and Scale*J mostly below it (the pattern path, with
  // negative pivots from negative shifts); variants 2 and 5 let J dominate
  // (row swaps).
  auto CheckRandom = [&]<typename T>(LuDecomposition<T> &Got) {
    for (size_t N = 0; N <= 40; ++N)
      for (double Density : {0.02, 0.05, 0.1, 0.3, 0.6, 1.0})
        for (int Variant = 0; Variant < 6; ++Variant) {
          OwnedPattern P(R, N, Density);
          const bool Dominant = Variant == 2 || Variant == 5;
          const T Shift = Dominant ? randomShift<T>(R) : unitShift<T>(R);
          for (int Refactor = 0; Refactor < 3; ++Refactor) {
            Matrix J = randomJacobian(R, P, Variant == 5 ? 0.5 : 0.1);
            double Scale = std::pow(10.0, R.uniform(-12, -5));
            if (Variant == 1)
              Scale = -Scale;
            if (Dominant)
              Scale = std::pow(10.0, R.uniform(-4, 2));
            if (Variant == 3 && N > 0) {
              // A zero row and column of J under a zero shift: singular.
              const size_t Row = R.uniformInt(N);
              for (size_t C = 0; C < N; ++C)
                J(Row, C) = J(C, Row) = 0.0;
              Check("singular Newton matrix", Got, T{}, Scale, J, &P.View);
              continue;
            }
            if (Variant == 4 && N > 0) {
              const uint64_t Count = 1 + R.uniformInt(3);
              for (uint64_t I = 0; I < Count; ++I) {
                const size_t Row = R.uniformInt(N);
                const uint32_t Begin = P.RowBegin[Row];
                const uint32_t Length = P.RowBegin[Row + 1] - Begin;
                if (Length == 0)
                  continue;
                const uint32_t Col = P.Cols[Begin + R.uniformInt(Length)];
                J(Row, Col) = Specials[R.uniformInt(std::size(Specials))];
              }
            }
            Check("random Newton matrix", Got, Shift, Scale, J, &P.View);
          }
        }
  };
  CheckRandom(RealGot);
  CheckRandom(ComplexGot);

  // Special Shifts and Scales: 0, ±Inf, NaN, and a -0 shift, which forms
  // a -0 wherever the diagonal of J is zero.
  const double Scales[] = {
      0.0,
      -0.0,
      Limits::infinity(),
      -Limits::infinity(),
      Limits::quiet_NaN(),
      1e-3,
      -1e-3,
  };
  const double Shifts[] = {
      0.0,
      -0.0,
      Limits::infinity(),
      Limits::quiet_NaN(),
      Limits::denorm_min(),
  };
  for (size_t N = 1; N <= 12; ++N)
    for (int Rep = 0; Rep < 20; ++Rep) {
      OwnedPattern P(R, N, 0.3);
      const Matrix J = randomJacobian(R, P, 0.2);
      for (double Scale : Scales) {
        Check("special Scale", RealGot, randomShift<double>(R), Scale, J,
              &P.View);
        Check("special Scale", ComplexGot, randomShift<Complex>(R), Scale, J,
              &P.View);
      }
      for (double Shift : Shifts) {
        Check("special shift", RealGot, Shift, 0.5, J, &P.View);
        Check("special shift", ComplexGot, Complex(Shift, -0.0), 0.5, J,
              &P.View);
        Check("special shift", ComplexGot, Complex(1.0, Shift), 0.5, J,
              &P.View);
      }
    }

  // Newton matrices of the implicit solvers on the compiled models'
  // patterns: I - h*beta*J (BDF, LSODA, VODE) and gamma/h*I - J,
  // (alpha + i*beta)/h*I - J (RADAU5).
  const ReactionNetwork Nets[] = {
      makeMetabolicSurrogate().Net,
      makeAutophagySurrogate(16, 8).Net,
      makeDecayChainNetwork(12, 6.0),
  };
  const double Gamma = radau5detail::gammaReal();
  const double Alpha = radau5detail::alphaComplex();
  const double Beta = radau5detail::betaComplex();
  for (const ReactionNetwork &Net : Nets) {
    CompiledOdeSystem Sys(Net);
    const SparsityPattern *P = Sys.jacobianPattern();
    ASSERT_NE(P, nullptr);
    const std::vector<double> Y0 = Net.initialState();
    const std::vector<double> K0 = Sys.rateConstants();
    for (int Trial = 0; Trial < 10; ++Trial) {
      std::vector<double> Y = Y0, K = K0;
      if (Trial > 0) {
        for (double &X : Y)
          X = R.uniform() < 0.1 ? 0.0 : X * std::exp(R.uniform(-2, 2));
        for (double &X : K)
          X *= std::exp(R.uniform(-3, 3));
      }
      Sys.setRateConstants(K);
      std::vector<double> F0(Y.size());
      Sys.rhs(0.0, Y.data(), F0.data());
      Matrix J;
      Sys.jacobian(0.0, Y.data(), F0.data(), J);
      for (double H : {1e-6, 1e-3, 0.1, 10.0}) {
        Check("BDF Newton matrix", RealGot, 1.0, H * (2.0 / 3.0), J, P);
        Check("RADAU5 real Newton matrix", RealGot, Gamma / H, 1.0, J, P);
        Check("RADAU5 complex Newton matrix", ComplexGot,
              Complex(Alpha / H, Beta / H), 1.0, J, P);
      }
    }
  }

  EXPECT_EQ(Mismatches, 0u) << "of " << Factorizations << " factorizations";
  EXPECT_GT(Factorizations, 9000u);
  const uint64_t Fallbacks =
      metrics().snapshot().counterValue("psg.linalg.lu_pattern_fallbacks") -
      FallbacksBefore;
  // Both paths ran, each on thousands of matrices.
  EXPECT_GT(Fallbacks, 2000u);
  EXPECT_GT(Factorizations - Fallbacks, 5000u);
}

TEST(LuTest, PatternSequenceMatchesDenseBits) {
  // One LuDecomposition through a seeded mix of two live patterns of the
  // same order, null-pattern calls, factor() calls and fallbacks: none of
  // them may leave storage the next one mistakes for its own.
  Rng R(4242);
  size_t Steps = 0, Mismatches = 0;
  auto Report = [&](const std::string &Diff, const char *What) {
    ++Steps;
    if (!Diff.empty() && ++Mismatches <= 5)
      ADD_FAILURE() << What << " at step " << Steps << ": " << Diff;
  };
  auto Run = [&]<typename T>(LuDecomposition<T> &Got) {
    for (size_t N : {5, 17, 30}) {
      const OwnedPattern A(R, N, 0.15), B(R, N, 0.3);
      for (int Step = 0; Step < 120; ++Step) {
        const OwnedPattern &P = R.uniform() < 0.5 ? A : B;
        const Matrix J = randomJacobian(R, P, 0.1);
        const T Shift = randomShift<T>(R);
        // Mostly small Scales (the pattern path), now and then a large one
        // (row swaps) or a non-finite one (fallbacks).
        const double U = R.uniform();
        double Scale = std::pow(10.0, R.uniform(-6, -1));
        if (U > 0.9)
          Scale = std::numeric_limits<double>::infinity();
        else if (U > 0.7)
          Scale = 1e4;
        const std::vector<std::vector<T>> Rhs = newtonRhs<T>(R, N);
        const double Op = R.uniform();
        if (Op < 0.7) {
          Report(compareNewton(Got, Shift, Scale, J, &P.View, Rhs), "pattern");
        } else if (Op < 0.85) {
          Report(compareNewton(Got, Shift, Scale, J, nullptr, Rhs),
                 "null pattern");
        } else {
          DenseMatrix<T> A2 = randomMatrix<T>(R, N, 0.5);
          shiftDiagonal(A2, R.uniform() < 0.5 ? 1.0 : -1.0);
          DenseLuOracle<T> Want;
          Want.factor(A2);
          Got.factor(A2);
          std::string Diff;
          if (!sameBits(Got.determinant(), Want.determinant()))
            Diff = "determinant differs";
          Report(Diff, "factor()");
        }
      }
    }

    // A pattern built where a destroyed one lived, with the same order
    // and row lengths but other columns: its id differs, so neither the
    // cached fill nor the storage may carry over. Shifts with a positive
    // real part above Scale*J keep each factorization on the pattern path
    // and clean, and unit right-hand sides make the solves read whole
    // rows of storage.
    for (int Rep = 0; Rep < 20; ++Rep) {
      const size_t N = 8 + R.uniformInt(20);
      auto FactorAndSolve = [&](const OwnedPattern &P, const char *What) {
        std::vector<std::vector<T>> Units(N, std::vector<T>(N));
        for (size_t I = 0; I < N; ++I)
          Units[I][I] = T{1.0};
        const double Real = R.uniform(1, 10);
        T Shift = T{Real};
        if constexpr (!std::is_same_v<T, double>)
          Shift = {Real, R.uniform(0, Real / 2)};
        const Matrix J = randomJacobian(R, P, 0.0);
        Report(compareNewton(Got, Shift, 1e-9, J, &P.View, Units), What);
      };
      auto First = std::make_unique<OwnedPattern>(R, N, 0.2);
      for (int I = 0; I < 3; ++I)
        FactorAndSolve(*First, "first pattern");
      const OwnedPattern Template(R, *First);
      First.reset();
      auto Second = std::make_unique<OwnedPattern>(R, Template);
      for (int I = 0; I < 3; ++I)
        FactorAndSolve(*Second, "pattern built after the first died");
    }
  };
  LuDecomposition<double> RealGot;
  LuDecomposition<Complex> ComplexGot;
  Run(RealGot);
  Run(ComplexGot);
  EXPECT_EQ(Mismatches, 0u) << "of " << Steps << " steps";
}

TEST(LuTest, PatternFallbacksAreCounted) {
  // One count per fallback from the pattern path; null-pattern and
  // factor() calls take the general path without counting.
  const std::string Name = "psg.linalg.lu_pattern_fallbacks";
  auto Fallbacks = [&] { return metrics().snapshot().counterValue(Name); };
  const uint32_t RowBegin[] = {0, 2, 4};
  const uint32_t Cols[] = {0, 1, 0, 1};
  const SparsityPattern P{2, RowBegin, Cols, nextPatternEpoch()};
  Matrix Swap(2, 2), Diagonal(2, 2);
  Swap(0, 1) = Swap(1, 0) = -10.0; // I - J pivots on row 1.
  Diagonal(0, 0) = Diagonal(1, 1) = -1.0;
  RealLu Lu;
  const uint64_t Before = Fallbacks();
  EXPECT_TRUE(Lu.factorShifted(1.0, 1.0, Diagonal, &P));
  EXPECT_EQ(Fallbacks(), Before);
  EXPECT_TRUE(Lu.factorShifted(1.0, 1.0, Swap, &P));
  EXPECT_EQ(Fallbacks(), Before + 1);
  EXPECT_TRUE(Lu.factorShifted(1.0, 1.0, Swap, nullptr));
  EXPECT_TRUE(Lu.factor(Matrix::identity(2)));
  EXPECT_EQ(Fallbacks(), Before + 1);
  ComplexLu CLu;
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(CLu.factorShifted({1.0, 0.5}, NaN, Diagonal, &P));
  EXPECT_EQ(Fallbacks(), Before + 2);

  // Registered by the first call, so a run without fallbacks reads 0.
  bool Registered = false;
  for (const CounterSample &S : metrics().snapshot().Counters)
    Registered = Registered || S.Name == Name;
  EXPECT_TRUE(Registered);
}

TEST(SymbolicLuTest, FillMatchesDenseElimination) {
  // The fill cached by the first factorShifted() with a pattern equals a
  // boolean elimination over the dense N x N structure.
  Rng R(99);
  RealLu Lu;
  for (size_t N = 0; N <= 40; ++N)
    for (double Density : {0.02, 0.05, 0.1, 0.3, 0.6, 1.0}) {
      const OwnedPattern P(R, N, Density);
      std::vector<std::vector<bool>> Fill(N, std::vector<bool>(N));
      for (size_t I = 0; I < N; ++I) {
        Fill[I][I] = true;
        for (uint32_t E = P.RowBegin[I]; E < P.RowBegin[I + 1]; ++E)
          Fill[I][P.Cols[E]] = true;
      }
      for (size_t K = 0; K < N; ++K)
        for (size_t I = K + 1; I < N; ++I)
          if (Fill[I][K])
            for (size_t C = K + 1; C < N; ++C)
              Fill[I][C] = Fill[I][C] || Fill[K][C];

      Lu.factorShifted(1.0, 1e-3, randomJacobian(R, P, 0.0), &P.View);
      const SymbolicLu &S = Lu.symbolic();
      ASSERT_EQ(S.Id, P.View.Id);
      ASSERT_EQ(S.RowBegin.size(), N + 1);
      std::vector<std::vector<uint32_t>> WantL(N);
      for (size_t I = 0; I < N; ++I) {
        std::vector<uint32_t> Want;
        for (size_t C = 0; C < N; ++C)
          if (Fill[I][C]) {
            Want.push_back(static_cast<uint32_t>(C));
            if (C < I)
              WantL[C].push_back(static_cast<uint32_t>(I));
          }
        const std::vector<uint32_t> Got(S.Cols.begin() + S.RowBegin[I],
                                        S.Cols.begin() + S.RowBegin[I + 1]);
        ASSERT_EQ(Got, Want) << "row " << I << " of order " << N;
        ASSERT_EQ(S.Cols[S.Diag[I]], I);
      }
      for (size_t K = 0; K < N; ++K) {
        const std::vector<uint32_t> Got(S.LRows.begin() + S.LBegin[K],
                                        S.LRows.begin() + S.LBegin[K + 1]);
        ASSERT_EQ(Got, WantL[K]) << "column " << K << " of order " << N;
      }
    }

  // Each compilation draws its own pattern id; views of one model share
  // it and point at the model's CSR arrays.
  const ReactionNetwork Net = makeMetabolicSurrogate().Net;
  const auto First = compileModel(Net), Second = compileModel(Net);
  EXPECT_NE(First->JacPatternId, 0u);
  EXPECT_NE(First->JacPatternId, Second->JacPatternId);
  const CompiledOdeSystem View1(First), View2(First);
  const SparsityPattern *P1 = View1.jacobianPattern();
  ASSERT_NE(P1, nullptr);
  EXPECT_EQ(P1->Id, First->JacPatternId);
  EXPECT_EQ(View2.jacobianPattern()->Id, First->JacPatternId);
  EXPECT_EQ(P1->Order, First->NumSpecies);
  EXPECT_EQ(P1->RowBegin, First->JacRowBegin.data());
  EXPECT_EQ(P1->Cols, First->JacCol.data());
  CompiledOdeSystem Rebound(First);
  Rebound.rebind(Second);
  EXPECT_EQ(Rebound.jacobianPattern()->Id, Second->JacPatternId);
  const FunctionOdeSystem Plain(1, [](double, const double *, double *) {});
  EXPECT_EQ(Plain.jacobianPattern(), nullptr);
}
