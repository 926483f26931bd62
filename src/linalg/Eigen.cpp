//===- linalg/Eigen.cpp ---------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"

#include "linalg/VectorOps.h"
#include "support/Metrics.h"

#include <cmath>
#include <vector>

using namespace psg;

double psg::powerIterationSpectralRadius(const Matrix &A, unsigned MaxIters,
                                         double Tolerance) {
  assert(A.isSquare() && "power iteration on a non-square matrix");
  const size_t N = A.rows();
  if (N == 0)
    return 0.0;

  // Gather the nonzeros once, rows in order and columns ascending, so each
  // row sum below adds the dense product's nonzero terms in the dense
  // order. A skipped term is an exact zero times a finite V entry (V stays
  // finite: the loop stops as soon as ||W|| is not), so a row sum can
  // differ from the dense one only in the sign of a zero, which no norm
  // sees: the estimate is bit-identical. `!= 0.0` keeps NaN and Inf.
  std::vector<size_t> RowBegin(N + 1);
  std::vector<size_t> Cols;
  std::vector<double> Vals;
  for (size_t R = 0; R < N; ++R) {
    RowBegin[R] = Cols.size();
    const double *Row = A.rowData(R);
    for (size_t C = 0; C < N; ++C)
      if (Row[C] != 0.0) {
        Cols.push_back(C);
        Vals.push_back(Row[C]);
      }
  }
  RowBegin[N] = Cols.size();

  // Deterministic, non-degenerate start vector.
  std::vector<double> V(N), W(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = 1.0 + 0.001 * static_cast<double>(I % 17);
  double Norm = norm2(V.data(), N);
  for (double &X : V)
    X /= Norm;

  // One relaxed add per call: the matvecs this call performed.
  static Counter &Matvecs = metrics().counter("psg.linalg.power_iterations");
  double Estimate = 0.0;
  for (unsigned Iter = 0; Iter < MaxIters; ++Iter) {
    for (size_t R = 0; R < N; ++R) {
      double Sum = 0.0;
      for (size_t K = RowBegin[R]; K < RowBegin[R + 1]; ++K)
        Sum += Vals[K] * V[Cols[K]];
      W[R] = Sum;
    }
    double WNorm = norm2(W.data(), N);
    if (WNorm == 0.0 || !std::isfinite(WNorm)) {
      Matvecs.add(Iter + 1);
      return WNorm == 0.0 ? 0.0 : Estimate;
    }
    double Next = WNorm;
    for (size_t I = 0; I < N; ++I)
      V[I] = W[I] / WNorm;
    if (Iter > 0 && std::abs(Next - Estimate) <= Tolerance * Next) {
      Matvecs.add(Iter + 1);
      return Next;
    }
    Estimate = Next;
  }
  Matvecs.add(MaxIters);
  return Estimate;
}
