//===- ode/SolverOptions.h - Shared solver options --------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tolerances and limits shared by all solvers. The defaults match the
/// evaluation settings of this research line (absolute tolerance 1e-12,
/// relative tolerance 1e-6, at most 1e4 steps).
///
//===----------------------------------------------------------------------===//

#ifndef PSG_ODE_SOLVEROPTIONS_H
#define PSG_ODE_SOLVEROPTIONS_H

#include <cmath>
#include <cstdint>

namespace psg {

/// Integration controls shared by every solver.
struct SolverOptions {
  double AbsTol = 1e-12;   ///< Absolute error tolerance (per component).
  double RelTol = 1e-6;    ///< Relative error tolerance.
  double InitialStep = 0;  ///< Starting step; 0 selects automatically.
  double MaxStep = 0;      ///< Cap on |h|; 0 means the full interval.
  uint64_t MaxSteps = 10000; ///< Attempted-step budget.
  double Safety = 0.9;     ///< Step controller safety factor.
  double MinScale = 0.2;   ///< Max shrink factor per step.
  double MaxScale = 5.0;   ///< Max growth factor per step.
  unsigned MaxNewtonIters = 7; ///< Implicit solver iteration cap.
  bool EnableStiffnessDetection = true; ///< DOPRI5 stiffness test on/off.
};

// The rules a run must meet before a solver sees it: a `.psg` case file
// is checked at load, and every simulator checks its window.

/// A finite window with StartTime < EndTime. NaN fails every comparison,
/// so finiteness is tested first.
inline bool isValidWindow(double StartTime, double EndTime) {
  return std::isfinite(StartTime) && std::isfinite(EndTime) &&
         StartTime < EndTime;
}

/// Finite tolerances above 0.
inline bool hasValidTolerances(const SolverOptions &O) {
  return std::isfinite(O.AbsTol) && std::isfinite(O.RelTol) &&
         O.AbsTol > 0 && O.RelTol > 0;
}

/// A step budget of at least one step.
inline bool hasValidStepBudget(const SolverOptions &O) {
  return O.MaxSteps >= 1;
}

} // namespace psg

#endif // PSG_ODE_SOLVEROPTIONS_H
