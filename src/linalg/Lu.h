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
/// (see Lu.cpp). The implicit solvers hand over their Newton matrices as
/// Shift*I - Scale*J with J's sparsity pattern (factorShifted), which forms
/// and factors them only over the pattern's symbolic LU fill. RADAU5
/// factors one real and one complex Newton matrix per Jacobian refresh;
/// BDF factors a real one. The factorization count is part of the
/// operation statistics fed to the vgpu cost model.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_LINALG_LU_H
#define PSG_LINALG_LU_H

#include "linalg/Matrix.h"

#include <cstdint>

namespace psg {

/// A view of a square matrix's sparsity pattern in CSR form: row R's
/// structurally nonzero columns are Cols[RowBegin[R], RowBegin[R + 1]),
/// ascending. \c Id names the pattern; no other pattern in the process
/// shares it (take it from nextPatternEpoch()), so what a factorization
/// derives from a pattern stays valid under its id.
struct SparsityPattern {
  size_t Order = 0;
  const uint32_t *RowBegin = nullptr; ///< Order + 1 offsets into Cols.
  const uint32_t *Cols = nullptr;
  uint64_t Id = 0;
};

/// The symbolic LU of a SparsityPattern in natural order, without
/// pivoting: the pattern plus the diagonal, closed under elimination.
struct SymbolicLu {
  uint64_t Id = 0; ///< Id of the pattern it was built from; 0 for none.
  /// Row R's filled columns, ascending, at Cols[RowBegin[R],
  /// RowBegin[R + 1]); its diagonal at Cols[Diag[R]]. L's row R lies left
  /// of Diag[R], U's right of it.
  std::vector<size_t> RowBegin, Diag;
  std::vector<uint32_t> Cols;
  /// Column K's filled rows below the diagonal, ascending, at
  /// LRows[LBegin[K], LBegin[K + 1]).
  std::vector<size_t> LBegin;
  std::vector<uint32_t> LRows;

  /// Rebuilds the fill of \p P row by row: U's row K is merged into row R
  /// for each K < R that row R holds.
  void build(const SparsityPattern &P);
};

/// LU factorization P*A = L*U of a square matrix, with in-place storage.
template <typename T> class LuDecomposition {
public:
  LuDecomposition() = default;

  /// Factors \p A. Returns false if a column has no nonzero pivot left
  /// (A is singular); the factorization is then unusable. A tiny or
  /// subnormal pivot is accepted.
  bool factor(const DenseMatrix<T> &A);

  /// Factors the Newton matrix Shift*I - Scale*J with the bits factor()
  /// returns on it: entry (R, C) is (R == C ? Shift : 0) - Scale*J(R, C),
  /// and for a complex Shift the real part is Shift.real() - Scale*J(R, C)
  /// and the imaginary part Shift.imag() on the diagonal and +0 elsewhere.
  /// With a pattern \p P, J must be +0 outside it; the matrix is then
  /// formed and factored only over P's symbolic LU fill, which is built on
  /// the first call with P's id and cached. Partial pivoting that would
  /// swap rows, a non-finite Scale, pivot or multiplier, and a formed -0
  /// fall back to forming the whole matrix and factor()'s algorithm,
  /// counted by `psg.linalg.lu_pattern_fallbacks`. A null \p P takes that
  /// path directly, uncounted. Allocates nothing once sized.
  bool factorShifted(T Shift, double Scale, const Matrix &J,
                     const SparsityPattern *P);

  /// Solves (in place) the system A*X = B for one right-hand side.
  /// factor() must have succeeded.
  void solve(T *B) const;

  /// Returns true if factor() succeeded.
  bool valid() const { return Valid; }

  /// Order of the factored system.
  size_t order() const { return Lu.rows(); }

  /// Returns the determinant of A (product of pivots with sign).
  T determinant() const;

  /// The symbolic LU cached for the last pattern factored.
  const SymbolicLu &symbolic() const { return Symbolic; }

private:
  enum class PatternResult { Factored, Singular, Fallback };

  DenseMatrix<T> Lu;
  std::vector<size_t> Pivot;
  /// Column indices of the factors' nonzeros: row R of L (left of the
  /// diagonal) at LCols[LStart[R], LStart[R + 1]), row R of U (right of
  /// it) at UCols[UStart[R], UStart[R + 1]).
  std::vector<size_t> LStart, LCols, UStart, UCols;
  SymbolicLu Symbolic;
  /// Id of the pattern whose fill holds every entry of Lu that is not +0;
  /// 0 when no pattern's does. Ids, unlike addresses, are never reused.
  uint64_t CleanId = 0;
  int PivotSign = 1;
  bool Valid = false;

  /// factor()'s algorithm on the matrix already in Lu.
  bool factorInPlace();
  PatternResult factorPattern(T Shift, double Scale, const Matrix &J,
                              const SparsityPattern &P);
};

extern template class LuDecomposition<double>;
extern template class LuDecomposition<std::complex<double>>;

using RealLu = LuDecomposition<double>;
using ComplexLu = LuDecomposition<std::complex<double>>;

} // namespace psg

#endif // PSG_LINALG_LU_H
