//===- ode/Interpolant.h - Dense output interfaces --------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense-output interfaces. After every accepted step a solver exposes an
/// interpolant valid on [TBegin, TEnd]; observers use it to sample fixed
/// output grids without constraining the solver's step sequence.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_ODE_INTERPOLANT_H
#define PSG_ODE_INTERPOLANT_H

#include <cstddef>
#include <vector>

namespace psg {

/// Evaluates the solution polynomial of one accepted step.
class StepInterpolant {
public:
  virtual ~StepInterpolant();

  /// Start of the validity interval.
  virtual double beginTime() const = 0;

  /// End of the validity interval.
  virtual double endTime() const = 0;

  /// Evaluates the interpolant at \p T in [beginTime(), endTime()] into
  /// \p YOut (length = system dimension).
  virtual void evaluate(double T, double *YOut) const = 0;
};

/// Cubic Hermite interpolant over (T0, Y0, F0) .. (T1, Y1, F1); third-order
/// accurate, used by solvers without a native dense output.
class HermiteInterpolant : public StepInterpolant {
public:
  /// Binds to caller-owned arrays; they must outlive evaluate() calls.
  HermiteInterpolant(double T0, const double *Y0, const double *F0, double T1,
                     const double *Y1, const double *F1, size_t N)
      : T0(T0), T1(T1), Y0(Y0), F0(F0), Y1(Y1), F1(F1), N(N) {}

  double beginTime() const override { return T0; }
  double endTime() const override { return T1; }
  void evaluate(double T, double *YOut) const override;

private:
  double T0, T1;
  const double *Y0, *F0, *Y1, *F1;
  size_t N;
};

/// Observer of accepted steps (dense output consumer).
class StepObserver {
public:
  virtual ~StepObserver();

  /// Called once per accepted step with the step's interpolant. The
  /// interpolant is valid only during the call: once onStep returns, the
  /// solver reuses the storage it reads.
  virtual void onStep(const StepInterpolant &Interp) = 0;
};

} // namespace psg

#endif // PSG_ODE_INTERPOLANT_H
