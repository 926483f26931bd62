//===- ode/Multistep.cpp --------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "ode/Multistep.h"

#include "linalg/Eigen.h"
#include "linalg/VectorOps.h"
#include "ode/SolverWorkspace.h"
#include "ode/StepControl.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cmath>

using namespace psg;

namespace {
constexpr unsigned MaxHistory = MultistepDriver::MaxOrder + 2;

// Adams-Bashforth predictor weights, AB[q][j] multiplies f_{n-j}.
const double AB[6][5] = {
    {0, 0, 0, 0, 0},
    {1.0, 0, 0, 0, 0},
    {3.0 / 2, -1.0 / 2, 0, 0, 0},
    {23.0 / 12, -16.0 / 12, 5.0 / 12, 0, 0},
    {55.0 / 24, -59.0 / 24, 37.0 / 24, -9.0 / 24, 0},
    {1901.0 / 720, -2774.0 / 720, 2616.0 / 720, -1274.0 / 720, 251.0 / 720}};

// Adams-Moulton corrector weights, AM[q][0] multiplies f_{n+1},
// AM[q][j>0] multiplies f_{n+1-j}.
const double AM[6][5] = {
    {0, 0, 0, 0, 0},
    {1.0, 0, 0, 0, 0},
    {1.0 / 2, 1.0 / 2, 0, 0, 0},
    {5.0 / 12, 8.0 / 12, -1.0 / 12, 0, 0},
    {9.0 / 24, 19.0 / 24, -5.0 / 24, 1.0 / 24, 0},
    {251.0 / 720, 646.0 / 720, -264.0 / 720, 106.0 / 720, -19.0 / 720}};

// Milne error factor |C*| / (C - C*) for the PECE pair at each order.
const double MilneFactor[6] = {0, 0.5, 1.0 / 6, 0.1, 19.0 / 270, 27.0 / 502};

// BDF formula y_{n+1} = sum_j BdfAlpha[q][j] y_{n-j} + h BdfBeta[q] f_{n+1}.
const double BdfAlpha[6][5] = {
    {0, 0, 0, 0, 0},
    {1.0, 0, 0, 0, 0},
    {4.0 / 3, -1.0 / 3, 0, 0, 0},
    {18.0 / 11, -9.0 / 11, 2.0 / 11, 0, 0},
    {48.0 / 25, -36.0 / 25, 16.0 / 25, -3.0 / 25, 0},
    {300.0 / 137, -300.0 / 137, 200.0 / 137, -75.0 / 137, 12.0 / 137}};
const double BdfBeta[6] = {0,         1.0,       2.0 / 3,
                           6.0 / 11,  12.0 / 25, 60.0 / 137};

/// Binomial coefficient for the polynomial-extrapolation predictor.
double binomial(unsigned N, unsigned K) {
  double R = 1.0;
  for (unsigned I = 1; I <= K; ++I)
    R = R * static_cast<double>(N - K + I) / static_cast<double>(I);
  return R;
}
} // namespace

MultistepDriver::MultistepDriver(const OdeSystem &System,
                                 const SolverOptions &Options,
                                 MultistepMethod InitialMethod) {
  reset(System, Options, InitialMethod);
}

bool MultistepDriver::reset(const OdeSystem &System,
                            const SolverOptions &Options,
                            MultistepMethod InitialMethod) {
  Sys = &System;
  Opts = Options;
  Method = InitialMethod;
  const size_t Dim = System.dimension();
  // All per-run state is (re)initialized by begin(); only the buffer
  // shapes matter here.
  if (Dim == N && !YHist.empty())
    return true;
  N = Dim;
  for (std::vector<double> *V :
       {&Y, &PrevY, &PrevF, &CurrF, &YPred, &FPred, &YCorr, &Delta, &Scratch})
    V->assign(N, 0.0);
  YHist.assign(MaxHistory, std::vector<double>(N));
  FHist.assign(MaxHistory, std::vector<double>(N));
  DiffRows.assign(MaxHistory, std::vector<double>(N));
  return false;
}

void MultistepDriver::begin(double T0, const double *Y0, double TEndIn) {
  T = T0;
  TEnd = TEndIn;
  Direction = TEnd >= T0 ? 1.0 : -1.0;
  std::copy(Y0, Y0 + N, Y.begin());
  Order = 1;
  ConsecutiveAccepts = 0;
  ConsecutiveRejects = 0;
  HaveJacobian = false;
  HaveFactorization = false;
  StepsSinceJacobian = 0;
  LastNewtonRate = 0.0;
  Stats = IntegrationStats();
  Interp.reset();

  Sys->rhs(T, Y.data(), CurrF.data());
  ++Stats.RhsEvaluations;
  YHist[0] = Y;
  FHist[0] = CurrF;
  HistCount = 1;
  H = selectInitialStep(*Sys, T, Y.data(), CurrF.data(), TEnd, Opts,
                        /*Order=*/1, Stats.RhsEvaluations);
  Spacing = Direction * H;
}

bool MultistepDriver::done() const {
  return (TEnd - T) * Direction <= 0.0;
}

void MultistepDriver::switchMethod(MultistepMethod NewMethod) {
  if (Method == NewMethod)
    return;
  Method = NewMethod;
  Order = 1;
  HistCount = 1;
  YHist[0] = Y;
  FHist[0] = CurrF;
  ConsecutiveAccepts = 0;
  ConsecutiveRejects = 0;
  HaveJacobian = false;
  HaveFactorization = false;
  ++Stats.SolverSwitches;
}

void multistepdetail::resampleRows(std::vector<double> *Rows, size_t K,
                                   size_t N, double Spacing, double NewSpacing,
                                   std::vector<double> *Diff) {
  assert(K >= 2 && K <= MaxHistory && "history row count out of range");
  double X[MaxHistory], XNew[MaxHistory];
  for (size_t JJ = 0; JJ < K; ++JJ) {
    X[JJ] = -static_cast<double>(JJ) * Spacing;
    XNew[JJ] = -static_cast<double>(JJ) * NewSpacing;
  }
  // Divided differences, from the top row down at each level so row
  // JJ - 1 still holds the previous level. Level 1 reads Rows, and row 0,
  // which no level changes, is read from Rows throughout.
  for (size_t Level = 1; Level < K; ++Level)
    for (size_t JJ = K - 1; JJ >= Level; --JJ) {
      const double Den = X[JJ] - X[JJ - Level];
      const double *Upper = (Level == 1 ? Rows[JJ] : Diff[JJ]).data();
      const double *Lower = (Level == 1 ? Rows[JJ - 1] : Diff[JJ - 1]).data();
      double *Out = Diff[JJ].data();
      for (size_t I = 0; I < N; ++I)
        Out[I] = (Upper[I] - Lower[I]) / Den;
    }
  // Horner evaluation at the new nodes; row 0 is unchanged by
  // construction.
  for (size_t Target = 1; Target < K; ++Target) {
    double *Out = Rows[Target].data();
    std::copy_n(Diff[K - 1].data(), N, Out);
    for (size_t Level = K - 1; Level-- > 0;) {
      const double Factor = XNew[Target] - X[Level];
      const double *Add = Level == 0 ? Rows[0].data() : Diff[Level].data();
      for (size_t I = 0; I < N; ++I)
        Out[I] = Out[I] * Factor + Add[I];
    }
  }
}

void MultistepDriver::resampleHistory(double NewSpacing) {
  assert(NewSpacing != 0.0 && "zero history spacing");
  if (HistCount <= 1 || NewSpacing == Spacing) {
    Spacing = NewSpacing;
    return;
  }
  // Truncate to the rows the current order needs before resampling: a
  // high-degree interpolating polynomial evaluated outside the old span
  // (step growth) oscillates wildly, while extrapolating the degree <= q+1
  // polynomial is exactly the Nordsieck rescale and stays benign.
  HistCount = std::min<size_t>(HistCount, Order + 2);
  multistepdetail::resampleRows(YHist.data(), HistCount, N, Spacing,
                                NewSpacing, DiffRows.data());
  multistepdetail::resampleRows(FHist.data(), HistCount, N, Spacing,
                                NewSpacing, DiffRows.data());
  Spacing = NewSpacing;
  HaveFactorization = false; // Newton matrix depends on the step.
}

void MultistepDriver::pushHistory(const std::vector<double> &NewY,
                                  const std::vector<double> &NewF) {
  // Rotate the storage so the oldest row becomes the new front.
  std::rotate(YHist.begin(), YHist.end() - 1, YHist.end());
  std::rotate(FHist.begin(), FHist.end() - 1, FHist.end());
  YHist[0] = NewY;
  FHist[0] = NewF;
  HistCount = std::min<size_t>(HistCount + 1, MaxHistory);
}

bool MultistepDriver::solveBdfCorrector(double Hs, double TNew,
                                        IntegrationStatus &Failure) {
  const unsigned Q = Order;
  const double Beta = BdfBeta[Q];

  // Jacobian refresh policy: keep the Jacobian for as long as the
  // observed corrector convergence rate stays below SlowNewtonRate — on
  // mildly nonlinear problems the same matrix serves hundreds of steps —
  // with a step-count cap as the safety net against a matrix that
  // converges adequately but drifts (ODEPACK/VODE-style).
  constexpr double SlowNewtonRate = 0.3;
  constexpr uint64_t MaxJacobianAge = 250;
  const bool Stale = LastNewtonRate > SlowNewtonRate ||
                     StepsSinceJacobian > MaxJacobianAge;
  if (!HaveJacobian || Stale) {
    Stats.RhsEvaluations += Sys->jacobian(T, Y.data(), FHist[0].data(), J);
    ++Stats.JacobianEvaluations;
    HaveJacobian = true;
    HaveFactorization = false;
    StepsSinceJacobian = 0;
    LastNewtonRate = 0.0;
  } else {
    static Counter &JacobianReuses =
        metrics().counter("psg.ode.jacobian_reuses");
    JacobianReuses.add();
  }
  if (!HaveFactorization || FactoredH != Hs || FactoredOrder != Q) {
    ++Stats.LuFactorizations;
    if (!Newton.factorShifted(1.0, Hs * Beta, J, Sys->jacobianPattern())) {
      Failure = IntegrationStatus::SingularMatrix;
      return false;
    }
    HaveFactorization = true;
    FactoredH = Hs;
    FactoredOrder = Q;
  }

  // Constant part: sum of alpha_j * y_{n-j}.
  std::fill(Scratch.begin(), Scratch.end(), 0.0);
  for (unsigned JJ = 0; JJ < Q; ++JJ)
    axpy(BdfAlpha[Q][JJ], YHist[JJ].data(), Scratch.data(), N);

  YCorr = YPred;
  double DeltaNormOld = 0.0;
  for (unsigned Iter = 0; Iter < 4; ++Iter) {
    Sys->rhs(TNew, YCorr.data(), FPred.data());
    ++Stats.RhsEvaluations;
    ++Stats.NewtonIterations;
    for (size_t I = 0; I < N; ++I)
      Delta[I] = -(YCorr[I] - Hs * Beta * FPred[I] - Scratch[I]);
    Newton.solve(Delta.data());
    ++Stats.LuSolves;
    for (size_t I = 0; I < N; ++I)
      YCorr[I] += Delta[I];
    if (!allFinite(YCorr)) {
      Failure = IntegrationStatus::NewtonFailure;
      HaveJacobian = false;
      return false;
    }
    const double DeltaNorm = weightedRmsNorm(Delta.data(), Y.data(), N,
                                             Opts.AbsTol, Opts.RelTol);
    if (DeltaNorm < 0.03)
      return true;
    if (Iter > 0) {
      const double Rate = DeltaNorm / std::max(DeltaNormOld, 1e-300);
      // Feed the refresh policy: a measured multi-iteration rate is the
      // direct observation of how well the current Jacobian still models
      // the system (single-iteration convergences leave it untouched —
      // they are evidence the matrix is still good).
      LastNewtonRate = Rate;
      if (Rate >= 2.0)
        break; // Diverging.
      if (Rate < 1.0 && Rate / (1.0 - Rate) * DeltaNorm < 0.03)
        return true;
    }
    DeltaNormOld = DeltaNorm;
  }
  // Did not converge: force a Jacobian refresh for the retry.
  HaveJacobian = false;
  Failure = IntegrationStatus::NewtonFailure;
  return false;
}

void MultistepDriver::adaptOrderAfterAccept() {
  ++ConsecutiveAccepts;
  ConsecutiveRejects = 0;
  if (ConsecutiveAccepts >= Order + 2 && Order < MaxOrder &&
      HistCount >= Order + 2) {
    ++Order;
    ConsecutiveAccepts = 0;
  }
}

IntegrationStatus MultistepDriver::advance() {
  const double Span = std::abs(TEnd - T);
  for (;;) {
    if (Stats.Steps >= Opts.MaxSteps)
      return IntegrationStatus::MaxStepsExceeded;
    if (Opts.MaxStep > 0)
      H = std::min(H, Opts.MaxStep);

    const double Remaining = (TEnd - T) * Direction;
    bool HitEnd = false;
    if (H >= Remaining) {
      H = Remaining;
      HitEnd = true;
    }
    const double MinMagnitude = 1e-14 * std::max(1.0, std::abs(T));
    if (H < MinMagnitude)
      return IntegrationStatus::StepSizeTooSmall;

    const double DesiredSpacing = Direction * H;
    if (DesiredSpacing != Spacing)
      resampleHistory(DesiredSpacing);
    const double Hs = Spacing;
    const double TNew = HitEnd ? TEnd : T + Hs;
    const unsigned Q = Order;
    assert(Q >= 1 && Q <= MaxOrder && HistCount >= Q &&
           "order exceeds available history");
    ++Stats.Steps;

    double Err = 0.0;
    if (Method == MultistepMethod::Adams) {
      // Predict (AB), evaluate, correct (AM), evaluate: PECE.
      YPred = Y;
      for (unsigned JJ = 0; JJ < Q; ++JJ)
        axpy(Hs * AB[Q][JJ], FHist[JJ].data(), YPred.data(), N);
      Sys->rhs(TNew, YPred.data(), FPred.data());
      ++Stats.RhsEvaluations;
      YCorr = Y;
      axpy(Hs * AM[Q][0], FPred.data(), YCorr.data(), N);
      for (unsigned JJ = 1; JJ < Q; ++JJ)
        axpy(Hs * AM[Q][JJ], FHist[JJ - 1].data(), YCorr.data(), N);
      for (size_t I = 0; I < N; ++I)
        Delta[I] = YCorr[I] - YPred[I];
      Err = MilneFactor[Q] * weightedRmsNorm2(Delta.data(), Y.data(),
                                              YCorr.data(), N, Opts.AbsTol,
                                              Opts.RelTol);
    } else {
      // Polynomial-extrapolation predictor over up to Q+1 rows. A run
      // that began on BDF starts with one row, and predicting the constant
      // Y would make the error estimate O(h), which drives h to zero on a
      // stiff start; it takes the degree-1 predictor Y + h*f instead. A
      // switch from Adams keeps the constant one.
      unsigned Degree = std::min<unsigned>(Q, HistCount - 1);
      if (Degree == 0 && Stats.SolverSwitches == 0) {
        YPred = Y;
        axpy(Hs, CurrF.data(), YPred.data(), N);
        Degree = 1;
      } else {
        std::fill(YPred.begin(), YPred.end(), 0.0);
        for (unsigned JJ = 0; JJ <= Degree; ++JJ) {
          const double Coef =
              (JJ % 2 == 0 ? 1.0 : -1.0) * binomial(Degree + 1, JJ + 1);
          axpy(Coef, YHist[JJ].data(), YPred.data(), N);
        }
      }
      IntegrationStatus Failure = IntegrationStatus::NewtonFailure;
      if (!solveBdfCorrector(Hs, TNew, Failure)) {
        ++Stats.RejectedSteps;
        ConsecutiveAccepts = 0;
        if (++ConsecutiveRejects > 20)
          return Failure;
        H *= 0.5;
        if (Order > 1 && ConsecutiveRejects >= 2)
          --Order;
        continue;
      }
      for (size_t I = 0; I < N; ++I)
        Delta[I] = YCorr[I] - YPred[I];
      Err = weightedRmsNorm2(Delta.data(), Y.data(), YCorr.data(), N,
                             Opts.AbsTol, Opts.RelTol) /
            static_cast<double>(Degree + 1);
    }

    if (!allFinite(YCorr)) {
      ++Stats.RejectedSteps;
      ConsecutiveAccepts = 0;
      if (++ConsecutiveRejects > 20)
        return IntegrationStatus::NonFiniteState;
      H *= 0.1;
      continue;
    }

    const double Exponent = 1.0 / (static_cast<double>(Q) + 1.0);
    if (Err > 1.0) {
      ++Stats.RejectedSteps;
      ConsecutiveAccepts = 0;
      ++ConsecutiveRejects;
      double Scale = Opts.Safety * std::pow(1.0 / Err, Exponent);
      Scale = std::clamp(Scale, 0.1, 0.9);
      H = std::abs(Hs) * Scale;
      if (ConsecutiveRejects >= 2 && Order > 1)
        --Order;
      if (ConsecutiveRejects >= 3)
        HaveJacobian = false;
      if (ConsecutiveRejects > 30)
        return IntegrationStatus::StepSizeTooSmall;
      continue;
    }

    // Accepted: final function value at the new point.
    Sys->rhs(TNew, YCorr.data(), FPred.data());
    ++Stats.RhsEvaluations;
    ++Stats.AcceptedSteps;
    ++StepsSinceJacobian;

    PrevT = T;
    PrevY = Y;
    PrevF = CurrF;
    Y = YCorr;
    CurrF = FPred;
    T = TNew;
    pushHistory(Y, CurrF);
    Interp.emplace(PrevT, PrevY.data(), PrevF.data(), T, Y.data(),
                   CurrF.data(), N);

    adaptOrderAfterAccept();
    double Scale = Opts.Safety * std::pow(1.0 / std::max(Err, 1e-10),
                                          Exponent);
    Scale = std::clamp(Scale, Opts.MinScale, Opts.MaxScale);
    // Dead-band: keep h (and the history spacing and Newton matrix) unless
    // the controller asks for a substantial change.
    if (Scale > 0.9 && Scale < 1.2)
      Scale = 1.0;
    H = std::abs(Hs) * Scale;
    (void)Span;
    return IntegrationStatus::Success;
  }
}

double MultistepDriver::estimateSpectralRadius() {
  Matrix Jac;
  Stats.RhsEvaluations += Sys->jacobian(T, Y.data(), CurrF.data(), Jac);
  ++Stats.JacobianEvaluations;
  return powerIterationSpectralRadius(Jac);
}

IntegrationResult psg::runMultistep(MultistepDriver &Driver,
                                    const OdeSystem &Sys, double T0,
                                    double TEnd, std::vector<double> &Y,
                                    const SolverOptions &Opts,
                                    MultistepMethod Method,
                                    StepObserver *Observer) {
  const size_t N = Sys.dimension();
  assert(Y.size() == N && "state size mismatch");
  (void)N;
  IntegrationResult Result;
  Result.FinalTime = T0;
  if (T0 == TEnd)
    return Result;

  if (Driver.reset(Sys, Opts, Method))
    noteSolverWorkspaceReuse();
  Driver.begin(T0, Y.data(), TEnd);
  while (!Driver.done()) {
    IntegrationStatus St = Driver.advance();
    if (St != IntegrationStatus::Success) {
      Result.Status = St;
      break;
    }
    if (Observer)
      Observer->onStep(Driver.lastStepInterpolant());
  }
  Y = Driver.state();
  Result.FinalTime = Driver.time();
  Result.LastStepSize = Driver.currentStep();
  Result.Stats = Driver.stats();
  return Result;
}

IntegrationResult AdamsSolver::integrate(const OdeSystem &Sys, double T0,
                                         double TEnd, std::vector<double> &Y,
                                         const SolverOptions &Opts,
                                         StepObserver *Observer) {
  return runMultistep(Driver, Sys, T0, TEnd, Y, Opts, MultistepMethod::Adams,
                      Observer);
}

IntegrationResult BdfSolver::integrate(const OdeSystem &Sys, double T0,
                                       double TEnd, std::vector<double> &Y,
                                       const SolverOptions &Opts,
                                       StepObserver *Observer) {
  return runMultistep(Driver, Sys, T0, TEnd, Y, Opts, MultistepMethod::Bdf,
                      Observer);
}
