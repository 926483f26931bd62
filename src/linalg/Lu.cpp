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
// factorShifted() with a pattern runs the same steps over the pattern's
// symbolic LU fill only. Entries outside the fill are +0 in the dense
// algorithm too, given no -0 input: an update reaches an entry only
// through a nonzero multiplier and a nonzero U entry, and both lie in the
// fill, so their product's target does as well. The one exception is the
// zero quotient of a negative pivot, which this path writes outside the
// fill too. Storage outside the fill is +0 between calls while CleanId
// names the pattern; a new pattern, a general-path call or a zero
// quotient outside the fill costs one zero-fill. Partial pivoting that
// would swap rows, a non-finite Scale (it would reach every entry), pivot
// or multiplier (the general path's dense updates), and a formed -0 (the
// general path's dense input) hand over to the general path.
//
//===----------------------------------------------------------------------===//

#include "linalg/Lu.h"

#include "support/Metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

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

/// True when \p V, or for complex either component, is -0.
bool hasNegativeZero(double V) {
  return std::bit_cast<uint64_t>(V) == uint64_t{1} << 63;
}
bool hasNegativeZero(const std::complex<double> &V) {
  return hasNegativeZero(V.real()) || hasNegativeZero(V.imag());
}

/// True when any of the \p Count doubles at \p P is -0.
bool anyNegativeZero(const double *P, size_t Count) {
  bool Found = false;
  for (size_t I = 0; I < Count; ++I)
    Found |= hasNegativeZero(P[I]);
  return Found;
}

/// Entries of Shift*I - Scale*J from Scaled = Scale*J(R, C): off the
/// diagonal 0 - Scaled, which is never -0, with a +0 imaginary part.
template <typename T> T offDiagonal(double Scaled) { return T(0.0 - Scaled); }
double onDiagonal(double Shift, double Scaled) { return Shift - Scaled; }
std::complex<double> onDiagonal(const std::complex<double> &Shift,
                                double Scaled) {
  return {Shift.real() - Scaled, Shift.imag()};
}

/// Forms the whole matrix Shift*I - Scale*J into \p M.
template <typename T>
void formShifted(DenseMatrix<T> &M, T Shift, double Scale, const Matrix &J) {
  const size_t N = J.rows();
  M.ensureShape(N, N);
  for (size_t R = 0; R < N; ++R) {
    const double *JRow = J.rowData(R);
    T *Row = M.rowData(R);
    for (size_t C = 0; C < N; ++C)
      Row[C] = offDiagonal<T>(Scale * JRow[C]);
    Row[R] = onDiagonal(Shift, Scale * JRow[R]);
  }
}
} // namespace

void SymbolicLu::build(const SparsityPattern &P) {
  const size_t N = P.Order;
  Id = P.Id;
  RowBegin.assign(1, 0);
  Diag.resize(N);
  Cols.clear();
  std::vector<size_t> Mark(N, N); // The last row that holds each column.
  std::vector<uint32_t> Row;
  for (size_t R = 0; R < N; ++R) {
    Row.assign(P.Cols + P.RowBegin[R], P.Cols + P.RowBegin[R + 1]);
    assert(std::adjacent_find(Row.begin(), Row.end(),
                              std::greater_equal<uint32_t>()) == Row.end() &&
           "pattern columns must ascend");
    for (uint32_t C : Row)
      Mark[C] = R;
    if (Mark[R] != R) {
      Mark[R] = R;
      Row.insert(std::lower_bound(Row.begin(), Row.end(), R),
                 static_cast<uint32_t>(R));
    }
    // U's row K holds columns above K only, so they are inserted after
    // position I and each one below R is merged in turn.
    for (size_t I = 0; Row[I] < R; ++I) {
      const size_t K = Row[I];
      for (size_t E = Diag[K] + 1; E < RowBegin[K + 1]; ++E) {
        const uint32_t C = Cols[E];
        if (Mark[C] == R)
          continue;
        Mark[C] = R;
        Row.insert(std::upper_bound(Row.begin() + I + 1, Row.end(), C), C);
      }
    }
    const auto DiagIt = std::lower_bound(Row.begin(), Row.end(), R);
    Diag[R] = Cols.size() + static_cast<size_t>(DiagIt - Row.begin());
    Cols.insert(Cols.end(), Row.begin(), Row.end());
    RowBegin.push_back(Cols.size());
  }

  // L by columns: the transpose of each row's part left of its diagonal.
  LBegin.assign(N + 1, 0);
  for (size_t R = 0; R < N; ++R)
    for (size_t I = RowBegin[R]; I < Diag[R]; ++I)
      ++LBegin[Cols[I] + 1];
  for (size_t K = 0; K < N; ++K)
    LBegin[K + 1] += LBegin[K];
  LRows.resize(LBegin[N]);
  std::vector<size_t> Next(LBegin.begin(), LBegin.end() - 1);
  for (size_t R = 0; R < N; ++R)
    for (size_t I = RowBegin[R]; I < Diag[R]; ++I)
      LRows[Next[Cols[I]]++] = static_cast<uint32_t>(R);
}

template <typename T> bool LuDecomposition<T>::factor(const DenseMatrix<T> &A) {
  assert(A.isSquare() && "LU of a non-square matrix");
  Lu = A;
  CleanId = 0;
  return factorInPlace();
}

template <typename T>
bool LuDecomposition<T>::factorShifted(T Shift, double Scale, const Matrix &J,
                                       const SparsityPattern *P) {
  static Counter &Fallbacks =
      metrics().counter("psg.linalg.lu_pattern_fallbacks");
  assert(J.isSquare() && "Newton matrix of a non-square Jacobian");
  if (P) {
    assert(P->Order == J.rows() && "pattern and Jacobian orders differ");
    switch (factorPattern(Shift, Scale, J, *P)) {
    case PatternResult::Factored:
      return true;
    case PatternResult::Singular:
      return false;
    case PatternResult::Fallback:
      Fallbacks.add();
      break;
    }
  }
  formShifted(Lu, Shift, Scale, J);
  CleanId = 0;
  return factorInPlace();
}

template <typename T>
typename LuDecomposition<T>::PatternResult
LuDecomposition<T>::factorPattern(T Shift, double Scale, const Matrix &J,
                                  const SparsityPattern &P) {
  if (!std::isfinite(Scale))
    return PatternResult::Fallback;
  const size_t N = J.rows();
  if (Symbolic.Id != P.Id)
    Symbolic.build(P);
  if (CleanId != P.Id) {
    Lu.resize(N, N);
    CleanId = P.Id;
  }
  const size_t *RowBegin = Symbolic.RowBegin.data();
  const size_t *Diag = Symbolic.Diag.data();
  const uint32_t *Cols = Symbolic.Cols.data();

  // Write every filled entry, fill included: outside J's pattern it reads
  // a +0 of J and becomes +0. Only the diagonal can be formed -0.
  bool NegativeZero = false;
  for (size_t R = 0; R < N; ++R) {
    const double *JRow = J.rowData(R);
    T *Row = Lu.rowData(R);
    for (size_t I = RowBegin[R]; I < RowBegin[R + 1]; ++I)
      Row[Cols[I]] = offDiagonal<T>(Scale * JRow[Cols[I]]);
    Row[R] = onDiagonal(Shift, Scale * JRow[R]);
    NegativeZero |= hasNegativeZero(Row[R]);
  }
  if (NegativeZero)
    return PatternResult::Fallback;

  Pivot.resize(N);
  PivotSign = 1;
  Valid = false;
  UStart.assign(N + 1, 0);
  UCols.clear();
  for (size_t K = 0; K < N; ++K) {
    Pivot[K] = K;
    T *RowK = Lu.rowData(K);
    const T PivotValue = RowK[K];
    const uint32_t *LRows = Symbolic.LRows.data() + Symbolic.LBegin[K];
    const size_t NumLRows = Symbolic.LBegin[K + 1] - Symbolic.LBegin[K];

    // factor()'s pivot search over the rows that can be nonzero: any row
    // that wins would be swapped in.
    const double PivotMag = magnitude(PivotValue);
    for (size_t I = 0; I < NumLRows; ++I) {
      const T V = Lu(LRows[I], K);
      if (V != T{} && magnitude(V) > PivotMag)
        return PatternResult::Fallback;
    }
    if (PivotMag == 0.0)
      return PatternResult::Singular;
    if (!isFinite(PivotValue))
      return PatternResult::Fallback;

    for (size_t I = Diag[K] + 1; I < RowBegin[K + 1]; ++I)
      if (RowK[Cols[I]] != T{})
        UCols.push_back(Cols[I]);
    UStart[K + 1] = UCols.size();
    const size_t *UK = UCols.data() + UStart[K];
    const size_t NumUK = UStart[K + 1] - UStart[K];

    const T ZeroQuotient = T{} / PivotValue;
    const bool WriteZeroQuotient = !isPositiveZero(ZeroQuotient);
    for (size_t I = 0; I < NumLRows; ++I) {
      T *RowR = Lu.rowData(LRows[I]);
      if (RowR[K] == T{}) {
        if (WriteZeroQuotient)
          RowR[K] = ZeroQuotient;
        continue;
      }
      const T Factor = RowR[K] / PivotValue;
      RowR[K] = Factor;
      if (Factor == T{})
        continue;
      if (!isFinite(Factor))
        return PatternResult::Fallback;
      for (size_t E = 0; E < NumUK; ++E)
        RowR[UK[E]] -= Factor * RowK[UK[E]];
    }
    if (WriteZeroQuotient && NumLRows < N - 1 - K) {
      for (size_t R = K + 1, I = 0; R < N; ++R) {
        if (I < NumLRows && LRows[I] == R)
          ++I;
        else
          Lu(R, K) = ZeroQuotient;
      }
      CleanId = 0;
    }
  }

  LStart.assign(N + 1, 0);
  LCols.clear();
  for (size_t R = 0; R < N; ++R) {
    const T *Row = Lu.rowData(R);
    for (size_t I = RowBegin[R]; I < Diag[R]; ++I)
      if (Row[Cols[I]] != T{})
        LCols.push_back(Cols[I]);
    LStart[R + 1] = LCols.size();
  }
  Valid = true;
  return PatternResult::Factored;
}

template <typename T> bool LuDecomposition<T>::factorInPlace() {
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
