//===- linalg/Lu.h - LU factorization with partial pivoting -----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LU factorization with partial pivoting over double and complex<double>,
/// stored dense and row-major. Elimination and the triangular solves visit
/// only the factors' nonzeros yet return the dense algorithm's exact bits
/// (see Lu.cpp). RADAU5 factors one real and one complex Newton matrix per
/// Jacobian refresh; BDF factors a real one. The factorization count is
/// part of the operation statistics fed to the vgpu cost model.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_LINALG_LU_H
#define PSG_LINALG_LU_H

#include "linalg/Matrix.h"

namespace psg {

/// LU factorization P*A = L*U of a square matrix, with in-place storage.
template <typename T> class LuDecomposition {
public:
  LuDecomposition() = default;

  /// Factors \p A. Returns false if a column has no nonzero pivot left
  /// (A is singular); the factorization is then unusable. A tiny or
  /// subnormal pivot is accepted.
  bool factor(const DenseMatrix<T> &A);

  /// Solves (in place) the system A*X = B for one right-hand side.
  /// factor() must have succeeded.
  void solve(T *B) const;

  /// Returns true if factor() succeeded.
  bool valid() const { return Valid; }

  /// Order of the factored system.
  size_t order() const { return Lu.rows(); }

  /// Returns the determinant of A (product of pivots with sign).
  T determinant() const;

private:
  DenseMatrix<T> Lu;
  std::vector<size_t> Pivot;
  /// Column indices of the factors' nonzeros: row R of L (left of the
  /// diagonal) at LCols[LStart[R], LStart[R + 1]), row R of U (right of
  /// it) at UCols[UStart[R], UStart[R + 1]).
  std::vector<size_t> LStart, LCols, UStart, UCols;
  int PivotSign = 1;
  bool Valid = false;
};

extern template class LuDecomposition<double>;
extern template class LuDecomposition<std::complex<double>>;

using RealLu = LuDecomposition<double>;
using ComplexLu = LuDecomposition<std::complex<double>>;

} // namespace psg

#endif // PSG_LINALG_LU_H
