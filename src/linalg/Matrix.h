//===- linalg/Matrix.h - Dense matrices -------------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Row-major dense matrices over double or complex<double>. Sized for the
/// Jacobians of reaction networks (tens to a few thousand rows); no attempt
/// is made at blocking or SIMD beyond what the compiler autovectorizes.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_LINALG_MATRIX_H
#define PSG_LINALG_MATRIX_H

#include <cassert>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace psg {

/// Row-major dense matrix of element type \p T.
template <typename T> class DenseMatrix {
public:
  DenseMatrix() = default;

  /// Creates a RowsxCols matrix of zeros.
  DenseMatrix(size_t Rows, size_t Cols)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, T{}) {}

  /// Returns the identity matrix of order \p N.
  static DenseMatrix identity(size_t N) {
    DenseMatrix M(N, N);
    for (size_t I = 0; I < N; ++I)
      M(I, I) = T{1};
    return M;
  }

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }
  bool isSquare() const { return NumRows == NumCols; }
  bool empty() const { return Data.empty(); }

  /// Element access (row-major). Asserted bounds.
  T &operator()(size_t Row, size_t Col) {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }
  const T &operator()(size_t Row, size_t Col) const {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }

  /// Raw pointer to row \p Row.
  T *rowData(size_t Row) {
    assert(Row < NumRows && "row out of range");
    return Data.data() + Row * NumCols;
  }
  const T *rowData(size_t Row) const {
    assert(Row < NumRows && "row out of range");
    return Data.data() + Row * NumCols;
  }

  /// Resizes and zero-fills the matrix. Drops any pattern claim.
  void resize(size_t Rows, size_t Cols) {
    NumRows = Rows;
    NumCols = Cols;
    Data.assign(Rows * Cols, T{});
    PatternOwner = nullptr;
    PatternEpoch = 0;
  }

  /// Resizes without the zero-fill when the shape already matches (the
  /// existing contents are kept); otherwise falls back to resize(). For
  /// fillers that overwrite every element anyway — they pay the O(N^2)
  /// clear only on a real shape change. Drops any pattern claim, since
  /// the caller is about to replace the contents wholesale.
  void ensureShape(size_t Rows, size_t Cols) {
    if (NumRows != Rows || NumCols != Cols) {
      resize(Rows, Cols);
      return;
    }
    PatternOwner = nullptr;
    PatternEpoch = 0;
  }

  /// Sets every element to zero. Drops any pattern claim.
  void setZero() {
    Data.assign(Data.size(), T{});
    PatternOwner = nullptr;
    PatternEpoch = 0;
  }

  /// Claims this matrix as a sparsity-patterned workspace for \p Owner at
  /// \p Epoch. Returns true when the previous claim matches (same owner,
  /// same epoch, same shape): every element the owner did not fill last
  /// time is still zero, so a pattern-only writer may skip the dense
  /// clear. Otherwise resizes to Rows x Cols (zero-filling), records the
  /// claim, and returns false. Owners must bump their epoch whenever the
  /// meaning of their pattern changes (e.g. a view rebinds to a new
  /// model) — the epoch is what defeats address-reuse (ABA) collisions
  /// when an owner is destroyed and a new one allocates at the same
  /// address. Any resize()/ensureShape()/setZero() drops the claim.
  bool claimPattern(const void *Owner, uint64_t Epoch, size_t Rows,
                    size_t Cols) {
    if (PatternOwner == Owner && PatternEpoch == Epoch && NumRows == Rows &&
        NumCols == Cols)
      return true;
    resize(Rows, Cols);
    PatternOwner = Owner;
    PatternEpoch = Epoch;
    return false;
  }

  /// In-place scaled add: *this += Alpha * Other (same shape).
  void addScaled(const DenseMatrix &Other, T Alpha) {
    assert(NumRows == Other.NumRows && NumCols == Other.NumCols &&
           "shape mismatch in addScaled");
    for (size_t I = 0; I < Data.size(); ++I)
      Data[I] += Alpha * Other.Data[I];
  }

  /// Matrix-vector product: Out = (*this) * X. Out must not alias X.
  void multiply(const T *X, T *Out) const {
    for (size_t R = 0; R < NumRows; ++R) {
      T Sum{};
      const T *Row = rowData(R);
      for (size_t C = 0; C < NumCols; ++C)
        Sum += Row[C] * X[C];
      Out[R] = Sum;
    }
  }

  bool operator==(const DenseMatrix &Other) const {
    return NumRows == Other.NumRows && NumCols == Other.NumCols &&
           Data == Other.Data;
  }

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<T> Data;
  // Pattern-claim bookkeeping (see claimPattern). Not part of the value:
  // operator== ignores it, and a copied matrix keeps the claim only
  // because its contents are identical — which is exactly the claim's
  // guarantee, so copies remain sound.
  const void *PatternOwner = nullptr;
  uint64_t PatternEpoch = 0;
};

using Matrix = DenseMatrix<double>;
using ComplexMatrix = DenseMatrix<std::complex<double>>;

/// Returns a nonzero token that no earlier call in this process returned.
/// claimPattern() epochs and SparsityPattern ids come from it, so neither
/// can collide with one of a dead owner or pattern allocated at the same
/// address.
uint64_t nextPatternEpoch();

/// Returns the max-row-sum (infinity) norm of \p M.
double infinityNorm(const Matrix &M);

/// Returns the Frobenius norm of \p M.
double frobeniusNorm(const Matrix &M);

} // namespace psg

#endif // PSG_LINALG_MATRIX_H
