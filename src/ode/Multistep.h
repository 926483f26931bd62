//===- ode/Multistep.h - Adams and BDF multistep methods --------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variable-order (1-5) multistep integration in the two ODEPACK families:
/// Adams-Bashforth-Moulton PECE for non-stiff problems and BDF with
/// simplified Newton for stiff ones. Both share a quasi-constant step-size
/// driver: history is kept at equal spacing and resampled through its
/// interpolating polynomial whenever the step changes (mathematically
/// equivalent to Nordsieck rescaling). The driver exposes step-at-a-time
/// control so the LSODA-style solver can switch families mid-run.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_ODE_MULTISTEP_H
#define PSG_ODE_MULTISTEP_H

#include "linalg/Lu.h"
#include "ode/OdeSolver.h"

#include <optional>

namespace psg {

/// Which multistep family a driver runs.
enum class MultistepMethod { Adams, Bdf };

/// Step-at-a-time multistep integrator core.
///
/// Usage: begin(), then advance() until done() or failure. The driver owns
/// the state vector; callers read it through time()/state().
class MultistepDriver {
public:
  static constexpr unsigned MaxOrder = 5;

  /// An unbound driver; call reset() before begin().
  MultistepDriver() = default;

  MultistepDriver(const OdeSystem &Sys, const SolverOptions &Opts,
                  MultistepMethod Method);

  /// (Re)binds the driver to a system/options/method, keeping the history
  /// and scratch buffers when the dimension is unchanged so one driver
  /// serves a whole batch of simulations. Returns true when the buffers
  /// were reused (no allocation). Call begin() afterwards.
  bool reset(const OdeSystem &Sys, const SolverOptions &Opts,
             MultistepMethod Method);

  /// Initializes at (T0, Y0) heading for TEnd. Resets order to 1.
  void begin(double T0, const double *Y0, double TEnd);

  /// Advances by one accepted step (attempting rejected steps internally).
  /// Returns Success when a step was accepted, or a terminal failure
  /// status. Check done() to detect arrival at TEnd.
  IntegrationStatus advance();

  /// True once the integration has reached TEnd.
  bool done() const;

  /// Switches the method family at the current point; order restarts at 1
  /// (history beyond the current point is discarded).
  void switchMethod(MultistepMethod NewMethod);

  double time() const { return T; }
  const std::vector<double> &state() const { return Y; }
  double currentStep() const { return H; }
  unsigned currentOrder() const { return Order; }
  MultistepMethod method() const { return Method; }
  const IntegrationStats &stats() const { return Stats; }
  uint64_t acceptedSteps() const { return Stats.AcceptedSteps; }

  /// Dense output of the last accepted step (cubic Hermite); valid only
  /// immediately after a successful advance().
  const StepInterpolant &lastStepInterpolant() const {
    assert(Interp && "no accepted step yet");
    return *Interp;
  }

  /// Estimates the spectral radius of the Jacobian at the current point
  /// (shared stiffness probe for LSODA/VODE heuristics).
  double estimateSpectralRadius();

private:
  const OdeSystem *Sys = nullptr;
  SolverOptions Opts;
  MultistepMethod Method = MultistepMethod::Adams;
  size_t N = 0;

  double T = 0.0, TEnd = 0.0, Direction = 1.0;
  double H = 0.0;        ///< Magnitude of the current step.
  double Spacing = 0.0;  ///< Signed spacing of the stored history.
  unsigned Order = 1;
  unsigned ConsecutiveAccepts = 0;
  unsigned ConsecutiveRejects = 0;
  IntegrationStats Stats;

  std::vector<double> Y;
  // History rows j = 0.. at times T - j*Spacing (row 0 = current point).
  std::vector<std::vector<double>> YHist, FHist;
  size_t HistCount = 0;
  /// Divided-difference rows for resampleHistory().
  std::vector<std::vector<double>> DiffRows;

  // BDF Newton workspace.
  Matrix J;
  RealLu Newton;
  bool HaveJacobian = false;
  bool HaveFactorization = false;
  double FactoredH = 0.0;
  unsigned FactoredOrder = 0;
  uint64_t StepsSinceJacobian = 0;
  /// Convergence rate of the most recent Newton solve that took more
  /// than one iteration (||d_k|| / ||d_{k-1}||); 0 while the corrector
  /// keeps converging in a single iteration. Drives the adaptive
  /// Jacobian reuse policy in solveBdfCorrector().
  double LastNewtonRate = 0.0;

  // Last accepted step endpoints for the observer interpolant.
  double PrevT = 0.0;
  std::vector<double> PrevY, PrevF, CurrF;
  std::optional<HermiteInterpolant> Interp;

  // Scratch.
  std::vector<double> YPred, FPred, YCorr, Delta, Scratch;

  void resampleHistory(double NewSpacing);
  void pushHistory(const std::vector<double> &NewY,
                   const std::vector<double> &NewF);
  bool solveBdfCorrector(double Hs, double TNew, IntegrationStatus &Failure);
  void adaptOrderAfterAccept();
};

namespace multistepdetail {
/// Moves history onto a new spacing: row J of \p Rows (J < K, 2 <= K <=
/// MultistepDriver::MaxOrder + 2) holds N values at -J*Spacing and is
/// replaced by their interpolating polynomial's values at -J*NewSpacing;
/// row 0 keeps its values. The Newton divided differences and the Horner
/// evaluation run level by level and row by row over all N components at
/// once, each component with the operations, in the order, of evaluating
/// it alone. \p Diff provides K scratch rows of N (row 0 unused).
void resampleRows(std::vector<double> *Rows, size_t K, size_t N,
                  double Spacing, double NewSpacing, std::vector<double> *Diff);
} // namespace multistepdetail

/// Adams-Bashforth-Moulton PECE solver ("adams"), orders 1-5.
class AdamsSolver : public OdeSolver {
public:
  std::string name() const override { return "adams"; }
  IntegrationResult integrate(const OdeSystem &Sys, double T0, double TEnd,
                              std::vector<double> &Y,
                              const SolverOptions &Opts,
                              StepObserver *Observer = nullptr) override;

private:
  MultistepDriver Driver; ///< History/scratch reused across integrations.
};

/// BDF solver ("bdf"), orders 1-5 with simplified Newton.
class BdfSolver : public OdeSolver {
public:
  std::string name() const override { return "bdf"; }
  bool isImplicit() const override { return true; }
  IntegrationResult integrate(const OdeSystem &Sys, double T0, double TEnd,
                              std::vector<double> &Y,
                              const SolverOptions &Opts,
                              StepObserver *Observer = nullptr) override;

private:
  MultistepDriver Driver; ///< History/scratch reused across integrations.
};

/// Shared driver loop over a caller-owned (reusable) driver: \p Driver is
/// reset onto (Sys, Opts, Method) — counting a workspace reuse when its
/// buffers carry over — then stepped to TEnd.
IntegrationResult runMultistep(MultistepDriver &Driver, const OdeSystem &Sys,
                               double T0, double TEnd, std::vector<double> &Y,
                               const SolverOptions &Opts,
                               MultistepMethod Method,
                               StepObserver *Observer);

} // namespace psg

#endif // PSG_ODE_MULTISTEP_H
