//===- linalg/Eigen.h - Spectral estimates ----------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheap spectral-radius estimates for the engine's stiffness heuristic
/// (phase P2): a simulation whose Jacobian has a large dominant eigenvalue
/// magnitude is routed to the implicit Radau IIA solver.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_LINALG_EIGEN_H
#define PSG_LINALG_EIGEN_H

#include "linalg/Matrix.h"

namespace psg {

/// Power-iteration estimate of |lambda_max|. \p MaxIters bounds the work;
/// returns the best estimate reached (0 for the zero matrix). The
/// iteration runs over \p A's nonzeros only and returns the same bits as
/// the dense iteration over \p A. Each call adds its iteration count to
/// the `psg.linalg.power_iterations` counter.
double powerIterationSpectralRadius(const Matrix &A, unsigned MaxIters = 50,
                                    double Tolerance = 1e-3);

} // namespace psg

#endif // PSG_LINALG_EIGEN_H
