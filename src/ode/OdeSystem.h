//===- ode/OdeSystem.h - ODE system interface -------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system interface consumed by every solver: dimension, right-hand
/// side, and (optionally) an analytic Jacobian. Reaction-based models
/// compile to this interface in psg_rbm.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_ODE_ODESYSTEM_H
#define PSG_ODE_ODESYSTEM_H

#include "linalg/Jacobian.h"
#include "linalg/Matrix.h"

#include <string>
#include <vector>

namespace psg {

struct SparsityPattern;

/// An autonomous-or-not system dy/dt = f(t, y) of fixed dimension.
class OdeSystem {
public:
  virtual ~OdeSystem();

  /// Number of state variables.
  virtual size_t dimension() const = 0;

  /// Evaluates dy/dt = f(T, Y) into \p DyDt (both length dimension()).
  virtual void rhs(double T, const double *Y, double *DyDt) const = 0;

  /// Returns true if analyticJacobian() is implemented.
  virtual bool hasAnalyticJacobian() const { return false; }

  /// Fills \p J with df/dy at (T, Y). Only called when
  /// hasAnalyticJacobian() is true; the default aborts.
  virtual void analyticJacobian(double T, const double *Y, Matrix &J) const;

  /// The sparsity pattern of analyticJacobian(), or null (the default)
  /// when the system names none. A system that returns one has an analytic
  /// Jacobian, writes it only inside the pattern and leaves every other
  /// entry of J at +0, so the implicit solvers can factor their Newton
  /// matrices over the pattern (LuDecomposition::factorShifted). A system
  /// that wraps another and changes or merely forwards its Jacobian keeps
  /// the default: the guarantee is the inner system's alone.
  virtual const SparsityPattern *jacobianPattern() const { return nullptr; }

  /// Human-readable name for reports.
  virtual std::string name() const { return "ode-system"; }

  /// Fills \p J with df/dy at (T, Y), using the analytic Jacobian when
  /// available and forward differences otherwise. \p F0 must hold f(T, Y).
  /// Returns the number of extra rhs evaluations performed (0 if analytic).
  size_t jacobian(double T, const double *Y, const double *F0,
                  Matrix &J) const;
};

/// Adapts a plain callback into an OdeSystem; handy in tests and examples.
class FunctionOdeSystem : public OdeSystem {
public:
  FunctionOdeSystem(size_t Dimension, RhsFunction Rhs,
                    std::string Name = "function-system")
      : Dim(Dimension), Callback(std::move(Rhs)), SystemName(std::move(Name)) {}

  size_t dimension() const override { return Dim; }
  void rhs(double T, const double *Y, double *DyDt) const override {
    Callback(T, Y, DyDt);
  }
  std::string name() const override { return SystemName; }

private:
  size_t Dim;
  RhsFunction Callback;
  std::string SystemName;
};

} // namespace psg

#endif // PSG_ODE_ODESYSTEM_H
