//===- ode/IntegrationResult.h - Solver outcomes ----------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration outcome and operation statistics. The statistics are the
/// contract between the numerical layer and the vgpu cost model: every
/// countable operation a CUDA kernel would perform is tallied here.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_ODE_INTEGRATIONRESULT_H
#define PSG_ODE_INTEGRATIONRESULT_H

#include <cstdint>
#include <string>

namespace psg {

/// Why an integration stopped.
enum class IntegrationStatus {
  Success,          ///< Reached the requested end time.
  MaxStepsExceeded, ///< Step budget exhausted before the end time.
  StepSizeTooSmall, ///< Controller pushed h below the representable floor.
  NewtonFailure,    ///< Implicit solve failed repeatedly.
  SingularMatrix,   ///< Newton/iteration matrix could not be factored.
  NonFiniteState,   ///< NaN/Inf appeared in the state.
  StiffnessDetected, ///< Explicit solver flagged stiffness (engine re-routes).
  Aborted           ///< Execution layer refused the batch: its window is
                    ///< invalid (Detail names the rule).
};

/// Short human-readable name for \p Status.
const char *integrationStatusName(IntegrationStatus Status);

/// Returns true for terminal statuses that still leave a usable state
/// (Success, MaxStepsExceeded used as a segment boundary).
inline bool isRecoverable(IntegrationStatus Status) {
  return Status == IntegrationStatus::Success ||
         Status == IntegrationStatus::MaxStepsExceeded ||
         Status == IntegrationStatus::StiffnessDetected;
}

/// Operation counts accumulated over an integration.
struct IntegrationStats {
  uint64_t Steps = 0;          ///< Attempted steps.
  uint64_t AcceptedSteps = 0;  ///< Accepted steps.
  uint64_t RejectedSteps = 0;  ///< Error- or Newton-rejected steps.
  uint64_t RhsEvaluations = 0; ///< f(t, y) evaluations.
  uint64_t JacobianEvaluations = 0; ///< Analytic or FD Jacobians formed.
  uint64_t LuFactorizations = 0;    ///< Real-valued LU factorizations.
  uint64_t ComplexLuFactorizations = 0; ///< Complex LU factorizations.
  uint64_t LuSolves = 0;                ///< Triangular solve pairs (any type).
  uint64_t NewtonIterations = 0;        ///< Simplified-Newton iterations.
  uint64_t SolverSwitches = 0;          ///< LSODA-style method switches.

  /// Accumulates \p Other into this.
  void merge(const IntegrationStats &Other) {
    Steps += Other.Steps;
    AcceptedSteps += Other.AcceptedSteps;
    RejectedSteps += Other.RejectedSteps;
    RhsEvaluations += Other.RhsEvaluations;
    JacobianEvaluations += Other.JacobianEvaluations;
    LuFactorizations += Other.LuFactorizations;
    ComplexLuFactorizations += Other.ComplexLuFactorizations;
    LuSolves += Other.LuSolves;
    NewtonIterations += Other.NewtonIterations;
    SolverSwitches += Other.SolverSwitches;
  }
};

/// Result of one integrate() call.
struct IntegrationResult {
  IntegrationStatus Status = IntegrationStatus::Success;
  IntegrationStats Stats;
  double FinalTime = 0.0;    ///< Time actually reached.
  double LastStepSize = 0.0; ///< Last accepted step size (0 if none).
  std::string Detail;        ///< Optional failure detail.

  bool ok() const { return Status == IntegrationStatus::Success; }
};

} // namespace psg

#endif // PSG_ODE_INTEGRATIONRESULT_H
