//===- linalg/Lu.cpp ------------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Structured LU: the dense partial-pivoting algorithm with every operation
// that cannot change a bit left out. Elimination updates a row only at the
// pivot row's nonzero columns, and the substitutions visit only the
// factors' recorded nonzeros. Why no bit can change, in round-to-nearest
// with gradual underflow:
//
//  - x - y is -0 only when x = -0 and y = +0, and x - y = 0 only when
//    x == y, which gives +0. So if A holds no -0 in any component
//    (checked once, on the copy), no entry of the active submatrix ever
//    does.
//  - A skipped product is a finite multiplier times a zero of the pivot
//    row, i.e. ±0, and subtracting ±0 from anything but -0 returns it
//    unchanged. A non-finite multiplier or pivot (0 * Inf = NaN) runs the
//    dense update instead, and so does every step of an input with a -0.
//  - A skipped subdiagonal zero is +0 and would divide to 0 / pivot; that
//    quotient is written when it is not +0 (a negative pivot), so L holds
//    the dense bits too.
//  - In the solves, a skipped term is a zero of L or U times a finite
//    solved component, i.e. ±0, so a sparse sum can differ from the dense
//    one only in the sign of a zero result. A row whose sum has a zero
//    part is recomputed over its dense row, and once a solved component
//    is not finite every later row of that pass runs dense.
//
// The remaining operations run in the dense algorithm's order, so the
// factors, the determinant and every solution keep the dense bits. The one
// exception is a signaling NaN in A or B, which no arithmetic produces:
// a skipped subtraction would have quieted it.
//
//===----------------------------------------------------------------------===//

#include "linalg/Lu.h"

#include <bit>
#include <cmath>
#include <cstdint>

using namespace psg;

namespace {
/// Pivot magnitude for real and complex elements.
double magnitude(double V) { return std::abs(V); }
double magnitude(const std::complex<double> &V) { return std::abs(V); }

bool isFinite(double V) { return std::isfinite(V); }
bool isFinite(const std::complex<double> &V) {
  return std::isfinite(V.real()) && std::isfinite(V.imag());
}

/// True when \p V, or for complex either component, is zero: the only
/// results whose sign a skipped ±0 term can change.
bool hasZeroPart(double V) { return V == 0.0; }
bool hasZeroPart(const std::complex<double> &V) {
  return V.real() == 0.0 || V.imag() == 0.0;
}

/// True when every component of \p V is +0.
bool isPositiveZero(double V) { return std::bit_cast<uint64_t>(V) == 0; }
bool isPositiveZero(const std::complex<double> &V) {
  return isPositiveZero(V.real()) && isPositiveZero(V.imag());
}

/// True when any of the \p Count doubles at \p P is -0.
bool anyNegativeZero(const double *P, size_t Count) {
  constexpr uint64_t NegativeZero = uint64_t{1} << 63;
  bool Found = false;
  for (size_t I = 0; I < Count; ++I)
    Found |= std::bit_cast<uint64_t>(P[I]) == NegativeZero;
  return Found;
}
} // namespace

template <typename T> bool LuDecomposition<T>::factor(const DenseMatrix<T> &A) {
  assert(A.isSquare() && "LU of a non-square matrix");
  Lu = A;
  const size_t N = Lu.rows();
  Pivot.resize(N);
  PivotSign = 1;
  Valid = false;
  UStart.assign(N + 1, 0);
  UCols.clear();

  // complex<double> is array-compatible with double[2], so one scan over
  // the components covers both element types.
  const bool DenseInput =
      N > 0 && anyNegativeZero(reinterpret_cast<const double *>(Lu.rowData(0)),
                               N * N * sizeof(T) / sizeof(double));

  for (size_t K = 0; K < N; ++K) {
    // Partial pivoting: pick the largest magnitude in column K. A zero
    // below the diagonal never wins (0 > BestMag is false even for a NaN
    // BestMag), so its magnitude, a hypot for complex, is not computed.
    size_t Best = K;
    double BestMag = magnitude(Lu(K, K));
    for (size_t R = K + 1; R < N; ++R) {
      if (Lu(R, K) == T{})
        continue;
      double Mag = magnitude(Lu(R, K));
      if (Mag > BestMag) {
        BestMag = Mag;
        Best = R;
      }
    }
    Pivot[K] = Best;
    if (Best != K) {
      PivotSign = -PivotSign;
      T *RowK = Lu.rowData(K);
      T *RowB = Lu.rowData(Best);
      for (size_t C = 0; C < N; ++C)
        std::swap(RowK[C], RowB[C]);
    }
    if (BestMag == 0.0)
      return false;

    // Row K is final now: its nonzeros right of the diagonal are U's row K
    // and the only columns the updates below can change.
    const T *RowK = Lu.rowData(K);
    for (size_t C = K + 1; C < N; ++C)
      if (RowK[C] != T{})
        UCols.push_back(C);
    UStart[K + 1] = UCols.size();
    const size_t *Cols = UCols.data() + UStart[K];
    const size_t NumCols = UStart[K + 1] - UStart[K];

    const T PivotValue = RowK[K];
    const bool DenseStep = DenseInput || !isFinite(PivotValue);
    const T ZeroQuotient = T{} / PivotValue;
    const bool WriteZeroQuotient = !isPositiveZero(ZeroQuotient);
    for (size_t R = K + 1; R < N; ++R) {
      T *RowR = Lu.rowData(R);
      if (!DenseStep && RowR[K] == T{}) {
        if (WriteZeroQuotient)
          RowR[K] = ZeroQuotient;
        continue;
      }
      const T Factor = RowR[K] / PivotValue;
      RowR[K] = Factor;
      if (Factor == T{})
        continue;
      if (DenseStep || !isFinite(Factor)) {
        for (size_t C = K + 1; C < N; ++C)
          RowR[C] -= Factor * RowK[C];
        continue;
      }
      for (size_t I = 0; I < NumCols; ++I)
        RowR[Cols[I]] -= Factor * RowK[Cols[I]];
    }
  }

  // L's nonzeros, recorded only now: row swaps move L's rows until the
  // last step.
  LStart.assign(N + 1, 0);
  LCols.clear();
  for (size_t R = 0; R < N; ++R) {
    const T *Row = Lu.rowData(R);
    for (size_t C = 0; C < R; ++C)
      if (Row[C] != T{})
        LCols.push_back(C);
    LStart[R + 1] = LCols.size();
  }
  Valid = true;
  return true;
}

template <typename T> void LuDecomposition<T>::solve(T *B) const {
  assert(Valid && "solve() on an invalid factorization");
  const size_t N = Lu.rows();
  if (N == 0)
    return;

  // Apply row permutation.
  for (size_t K = 0; K < N; ++K)
    if (Pivot[K] != K)
      std::swap(B[K], B[Pivot[K]]);

  // Forward substitution with unit lower-triangular L. B[0] is never
  // rewritten, but every later row reads it.
  bool Dense = !isFinite(B[0]);
  for (size_t R = 1; R < N; ++R) {
    const T *Row = Lu.rowData(R);
    T Sum = B[R];
    if (!Dense)
      for (size_t I = LStart[R]; I < LStart[R + 1]; ++I)
        Sum -= Row[LCols[I]] * B[LCols[I]];
    if (Dense || hasZeroPart(Sum)) {
      Sum = B[R];
      for (size_t C = 0; C < R; ++C)
        Sum -= Row[C] * B[C];
    }
    B[R] = Sum;
    Dense = Dense || !isFinite(Sum);
  }

  // Back substitution with U.
  Dense = false;
  for (size_t RI = N; RI-- > 0;) {
    const T *Row = Lu.rowData(RI);
    T Sum = B[RI];
    if (!Dense)
      for (size_t I = UStart[RI]; I < UStart[RI + 1]; ++I)
        Sum -= Row[UCols[I]] * B[UCols[I]];
    if (Dense || hasZeroPart(Sum)) {
      Sum = B[RI];
      for (size_t C = RI + 1; C < N; ++C)
        Sum -= Row[C] * B[C];
    }
    B[RI] = Sum / Row[RI];
    Dense = Dense || !isFinite(B[RI]);
  }
}

template <typename T> T LuDecomposition<T>::determinant() const {
  assert(Valid && "determinant() on an invalid factorization");
  T Det = static_cast<T>(PivotSign);
  for (size_t K = 0; K < Lu.rows(); ++K)
    Det *= Lu(K, K);
  return Det;
}

namespace psg {
template class LuDecomposition<double>;
template class LuDecomposition<std::complex<double>>;
} // namespace psg
