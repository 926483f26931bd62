//===- ode/Radau5.cpp -----------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// Algorithm and constants follow Hairer & Wanner, "Solving Ordinary
// Differential Equations II" (RADAU5). A unit test validates the hardcoded
// eigen-structure constants against the exact Butcher matrix.
//
//===----------------------------------------------------------------------===//

#include "ode/Radau5.h"

#include "linalg/Lu.h"
#include "linalg/VectorOps.h"
#include "ode/SolverWorkspace.h"
#include "ode/StepControl.h"

#include <algorithm>
#include <cmath>

using namespace psg;

namespace {
const double Sq6 = std::sqrt(6.0);
const double C1 = (4.0 - Sq6) / 10.0;
const double C2 = (4.0 + Sq6) / 10.0;

// Error-estimate weights (ESTRAD).
const double DD1 = -(13.0 + 7.0 * Sq6) / 3.0;
const double DD2 = (-13.0 + 7.0 * Sq6) / 3.0;
const double DD3 = -1.0 / 3.0;

// Eigen-structure of the inverse Butcher matrix (RADAU5 normalization).
struct EigenConstants {
  double U1, Alph, Beta;
  EigenConstants() {
    const double St9 = std::cbrt(9.0);
    double U = (6.0 + St9 * (St9 - 1.0)) / 30.0;
    double A = (12.0 - St9 * (St9 - 1.0)) / 60.0;
    double B = St9 * (St9 + 1.0) * std::sqrt(3.0) / 60.0;
    const double Cno = A * A + B * B;
    U1 = 1.0 / U;
    Alph = A / Cno;
    Beta = B / Cno;
  }
};
const EigenConstants EC;

// Transformation matrices (T32 = 1, T33 = 0).
const double T11 = 9.1232394870892942792e-02;
const double T12 = -0.14125529502095420843;
const double T13 = -3.0029194105147424492e-02;
const double T21 = 0.24171793270710701896;
const double T22 = 0.20412935229379993199;
const double T23 = 0.38294211275726193779;
const double T31 = 0.96604818261509293619;
const double TI11 = 4.3255798900631553510;
const double TI12 = 0.33919925181580986954;
const double TI13 = 0.54177053993587487119;
const double TI21 = -4.1787185915519047273;
const double TI22 = -0.32768282076106238708;
const double TI23 = 0.47662355450055045196;
const double TI31 = -0.50287263494578687595;
const double TI32 = 2.5719269498556054292;
const double TI33 = -0.59603920482822492497;

/// Fills Out = A + B elementwise and returns its data pointer; used to
/// form stage states Y + Z_i without extra temporaries.
const double *addVectors(const std::vector<double> &A,
                         const std::vector<double> &B,
                         std::vector<double> &Out) {
  for (size_t I = 0; I < A.size(); ++I)
    Out[I] = A[I] + B[I];
  return Out.data();
}

} // namespace

/// Cubic collocation interpolant: the Newton divided-difference polynomial
/// through (t0, y0) and the three stage values.
class Radau5Solver::Interpolant : public StepInterpolant {
public:
  explicit Interpolant(size_t N)
      : N(N), P0(N), P1(N), P2(N), P3(N) {}

  /// Builds the polynomial for step [T0, T0 + H] with stage increments Z.
  void rebuild(double T0In, double H, const double *Y0, const double *Z1,
               const double *Z2, const double *Z3) {
    T0 = T0In;
    T1 = T0In + H;
    // Nodes (scaled to s = (t - t0)/h): 0, c1, c2, 1; values y0, y0+Z.
    // Divided differences in s.
    for (size_t I = 0; I < N; ++I) {
      const double V0 = Y0[I];
      const double V1 = Y0[I] + Z1[I];
      const double V2 = Y0[I] + Z2[I];
      const double V3 = Y0[I] + Z3[I];
      const double D01 = (V1 - V0) / (C1 - 0.0);
      const double D12 = (V2 - V1) / (C2 - C1);
      const double D23 = (V3 - V2) / (1.0 - C2);
      const double D012 = (D12 - D01) / (C2 - 0.0);
      const double D123 = (D23 - D12) / (1.0 - C1);
      const double D0123 = (D123 - D012) / (1.0 - 0.0);
      P0[I] = V0;
      P1[I] = D01;
      P2[I] = D012;
      P3[I] = D0123;
    }
  }

  /// True once rebuild() has been called.
  bool valid() const { return T1 != T0; }

  double beginTime() const override { return T0; }
  double endTime() const override { return T1; }

  void evaluate(double T, double *YOut) const override {
    const double S = (T - T0) / (T1 - T0);
    for (size_t I = 0; I < N; ++I)
      YOut[I] = P0[I] +
                S * (P1[I] + (S - C1) * (P2[I] + (S - C2) * P3[I]));
  }

private:
  size_t N;
  double T0 = 0.0, T1 = 0.0;
  std::vector<double> P0, P1, P2, P3;
};

/// Per-solver working storage, reused across integrate() calls. Stage and
/// Newton vectors are fully written before being read in every step; the
/// LU factors of the iteration matrices are rebuilt before their first
/// solve of each integration (NeedJacobian/NeedFactor start true);
/// interpolant staleness is guarded by the FirstStep flag.
struct Radau5Solver::Workspace {
  size_t N = 0;
  std::vector<double> F0, F1, F2, F3;
  std::vector<double> Z1, Z2, Z3;
  std::vector<double> W1, W2, W3;
  std::vector<double> DW1, ErrVec, Scratch;
  std::vector<std::complex<double>> CRhs;
  Matrix J;
  RealLu RealDecomp;
  ComplexLu ComplexDecomp;
  Interpolant Interp{0};

  /// Sizes the buffers for \p Dim; returns true when already sized.
  bool prepare(size_t Dim) {
    if (Dim == N)
      return true;
    N = Dim;
    for (std::vector<double> *V :
         {&F0, &F1, &F2, &F3, &Z1, &Z2, &Z3, &W1, &W2, &W3, &DW1, &ErrVec,
          &Scratch})
      V->assign(Dim, 0.0);
    CRhs.assign(Dim, {});
    Interp = Interpolant(Dim);
    return false;
  }
};

Radau5Solver::Radau5Solver() : Ws(std::make_unique<Workspace>()) {}
Radau5Solver::~Radau5Solver() = default;

Matrix psg::radau5detail::butcherMatrix() {
  Matrix A(3, 3);
  A(0, 0) = (88.0 - 7.0 * Sq6) / 360.0;
  A(0, 1) = (296.0 - 169.0 * Sq6) / 1800.0;
  A(0, 2) = (-2.0 + 3.0 * Sq6) / 225.0;
  A(1, 0) = (296.0 + 169.0 * Sq6) / 1800.0;
  A(1, 1) = (88.0 + 7.0 * Sq6) / 360.0;
  A(1, 2) = (-2.0 - 3.0 * Sq6) / 225.0;
  A(2, 0) = (16.0 - Sq6) / 36.0;
  A(2, 1) = (16.0 + Sq6) / 36.0;
  A(2, 2) = 1.0 / 9.0;
  return A;
}

double psg::radau5detail::nodeC1() { return C1; }
double psg::radau5detail::nodeC2() { return C2; }
double psg::radau5detail::gammaReal() { return EC.U1; }
double psg::radau5detail::alphaComplex() { return EC.Alph; }
double psg::radau5detail::betaComplex() { return EC.Beta; }

Matrix psg::radau5detail::transformT() {
  Matrix T(3, 3);
  T(0, 0) = T11;
  T(0, 1) = T12;
  T(0, 2) = T13;
  T(1, 0) = T21;
  T(1, 1) = T22;
  T(1, 2) = T23;
  T(2, 0) = T31;
  T(2, 1) = 1.0;
  T(2, 2) = 0.0;
  return T;
}

Matrix psg::radau5detail::transformTInverse() {
  Matrix TI(3, 3);
  TI(0, 0) = TI11;
  TI(0, 1) = TI12;
  TI(0, 2) = TI13;
  TI(1, 0) = TI21;
  TI(1, 1) = TI22;
  TI(1, 2) = TI23;
  TI(2, 0) = TI31;
  TI(2, 1) = TI32;
  TI(2, 2) = TI33;
  return TI;
}

IntegrationResult Radau5Solver::integrate(const OdeSystem &Sys, double T0,
                                          double TEnd, std::vector<double> &Y,
                                          const SolverOptions &Opts,
                                          StepObserver *Observer) {
  const size_t N = Sys.dimension();
  assert(Y.size() == N && "state size mismatch");
  IntegrationResult Result;
  Result.FinalTime = T0;
  if (T0 == TEnd)
    return Result;
  const double Direction = TEnd > T0 ? 1.0 : -1.0;

  // Newton stopping tolerance (RADAU5 default FNEWT).
  const double Uround = 2.220446049250313e-16;
  const double FNewt = std::max(10.0 * Uround / Opts.RelTol,
                                std::min(0.03, std::sqrt(Opts.RelTol)));

  if (Ws->prepare(N))
    noteSolverWorkspaceReuse();
  std::vector<double> &F0 = Ws->F0, &F1 = Ws->F1, &F2 = Ws->F2, &F3 = Ws->F3;
  std::vector<double> &Z1 = Ws->Z1, &Z2 = Ws->Z2, &Z3 = Ws->Z3;
  std::vector<double> &W1 = Ws->W1, &W2 = Ws->W2, &W3 = Ws->W3;
  std::vector<double> &DW1 = Ws->DW1, &ErrVec = Ws->ErrVec,
                      &Scratch = Ws->Scratch;
  std::vector<std::complex<double>> &CRhs = Ws->CRhs;
  Matrix &J = Ws->J;
  RealLu &RealDecomp = Ws->RealDecomp;
  ComplexLu &ComplexDecomp = Ws->ComplexDecomp;
  auto &Interp = Ws->Interp;

  Sys.rhs(T0, Y.data(), F0.data());
  ++Result.Stats.RhsEvaluations;
  double H = selectInitialStep(Sys, T0, Y.data(), F0.data(), TEnd, Opts,
                               /*Order=*/3, Result.Stats.RhsEvaluations);
  const double MaxStep =
      Opts.MaxStep > 0 ? Opts.MaxStep : std::abs(TEnd - T0);

  double T = T0;
  bool NeedJacobian = true;
  bool NeedFactor = true;
  bool FirstStep = true;
  bool LastRejected = false;
  double FactoredH = 0.0;
  double Theta = 0.0;

  // The real and complex iteration matrices Fac1*I - J and
  // (AlphN + i*BetaN)*I - J.
  const SparsityPattern *Pattern = Sys.jacobianPattern();
  auto factorMatrices = [&](double Step) -> bool {
    const double Fac1 = EC.U1 / Step;
    const double AlphN = EC.Alph / Step;
    const double BetaN = EC.Beta / Step;
    ++Result.Stats.LuFactorizations;
    ++Result.Stats.ComplexLuFactorizations;
    if (!RealDecomp.factorShifted(Fac1, 1.0, J, Pattern) ||
        !ComplexDecomp.factorShifted({AlphN, BetaN}, 1.0, J, Pattern))
      return false;
    FactoredH = Step;
    NeedFactor = false;
    return true;
  };

  while ((TEnd - T) * Direction > 0) {
    if (Result.Stats.Steps >= Opts.MaxSteps) {
      Result.Status = IntegrationStatus::MaxStepsExceeded;
      Result.FinalTime = T;
      Result.LastStepSize = H;
      return Result;
    }
    H = std::min(H, MaxStep);
    double Step = Direction * H;
    bool HitEnd = false;
    if ((T + Step - TEnd) * Direction > 0 ||
        std::abs(T + Step - TEnd) < 1e-12 * std::abs(TEnd - T0)) {
      Step = TEnd - T;
      HitEnd = true;
    }
    const double MinMagnitude = 1e-14 * std::max(1.0, std::abs(T));
    if (std::abs(Step) < MinMagnitude) {
      Result.Status = IntegrationStatus::StepSizeTooSmall;
      Result.FinalTime = T;
      return Result;
    }

    if (NeedJacobian) {
      Result.Stats.RhsEvaluations += Sys.jacobian(T, Y.data(), F0.data(), J);
      ++Result.Stats.JacobianEvaluations;
      NeedJacobian = false;
      NeedFactor = true;
    }
    if (NeedFactor || std::abs(FactoredH - Step) > 1e-12 * std::abs(Step)) {
      if (!factorMatrices(Step)) {
        // Singular iteration matrix: halve the step and retry.
        ++Result.Stats.RejectedSteps;
        H *= 0.5;
        NeedFactor = true;
        if (H < MinMagnitude) {
          Result.Status = IntegrationStatus::SingularMatrix;
          Result.FinalTime = T;
          return Result;
        }
        continue;
      }
    }
    ++Result.Stats.Steps;

    // Starting values for the stages: extrapolate the previous collocation
    // polynomial when available, otherwise zero.
    if (!FirstStep && !LastRejected && Interp.valid()) {
      auto extrapolate = [&](double CNode, std::vector<double> &Z) {
        Interp.evaluate(T + CNode * Step, Z.data());
        for (size_t I = 0; I < N; ++I)
          Z[I] -= Y[I];
      };
      extrapolate(C1, Z1);
      extrapolate(C2, Z2);
      extrapolate(1.0, Z3);
    } else {
      std::fill(Z1.begin(), Z1.end(), 0.0);
      std::fill(Z2.begin(), Z2.end(), 0.0);
      std::fill(Z3.begin(), Z3.end(), 0.0);
    }
    // W = (TI x I) Z.
    for (size_t I = 0; I < N; ++I) {
      W1[I] = TI11 * Z1[I] + TI12 * Z2[I] + TI13 * Z3[I];
      W2[I] = TI21 * Z1[I] + TI22 * Z2[I] + TI23 * Z3[I];
      W3[I] = TI31 * Z1[I] + TI32 * Z2[I] + TI33 * Z3[I];
    }

    // Simplified Newton iteration.
    const double Fac1 = EC.U1 / Step;
    const double AlphN = EC.Alph / Step;
    const double BetaN = EC.Beta / Step;
    bool Converged = false;
    bool Diverged = false;
    double DynOld = 0.0;
    Theta = 0.0;
    unsigned Iter = 0;
    for (; Iter < Opts.MaxNewtonIters; ++Iter) {
      Sys.rhs(T + C1 * Step, addVectors(Y, Z1, Scratch), F1.data());
      Sys.rhs(T + C2 * Step, addVectors(Y, Z2, Scratch), F2.data());
      Sys.rhs(T + Step, addVectors(Y, Z3, Scratch), F3.data());
      Result.Stats.RhsEvaluations += 3;
      ++Result.Stats.NewtonIterations;

      // Real system: (Fac1 I - J) dW1 = (TI F)_1 - Fac1 W1.
      for (size_t I = 0; I < N; ++I)
        DW1[I] = TI11 * F1[I] + TI12 * F2[I] + TI13 * F3[I] - Fac1 * W1[I];
      RealDecomp.solve(DW1.data());
      // Complex system for (dW2 + i dW3).
      for (size_t I = 0; I < N; ++I) {
        const double R2 =
            TI21 * F1[I] + TI22 * F2[I] + TI23 * F3[I] - AlphN * W2[I] +
            BetaN * W3[I];
        const double R3 =
            TI31 * F1[I] + TI32 * F2[I] + TI33 * F3[I] - BetaN * W2[I] -
            AlphN * W3[I];
        CRhs[I] = std::complex<double>(R2, R3);
      }
      ComplexDecomp.solve(CRhs.data());
      Result.Stats.LuSolves += 2;

      // Norm of the update (all three blocks share the state weights).
      double Sum = 0.0;
      for (size_t I = 0; I < N; ++I) {
        const double Weight = Opts.AbsTol + Opts.RelTol * std::abs(Y[I]);
        const double D2 = CRhs[I].real();
        const double D3 = CRhs[I].imag();
        Sum += (DW1[I] * DW1[I] + D2 * D2 + D3 * D3) / (Weight * Weight);
      }
      const double Dyno = std::sqrt(Sum / static_cast<double>(3 * N));

      for (size_t I = 0; I < N; ++I) {
        W1[I] += DW1[I];
        W2[I] += CRhs[I].real();
        W3[I] += CRhs[I].imag();
        Z1[I] = T11 * W1[I] + T12 * W2[I] + T13 * W3[I];
        Z2[I] = T21 * W1[I] + T22 * W2[I] + T23 * W3[I];
        Z3[I] = T31 * W1[I] + W2[I];
      }

      if (!allFinite(Z3.data(), N)) {
        Diverged = true;
        break;
      }
      if (Iter > 0) {
        Theta = DynOld > 0.0 ? Dyno / DynOld : 0.0;
        if (Theta >= 1.0) {
          Diverged = true;
          break;
        }
        const double Eta = Theta / (1.0 - Theta);
        if (Eta * Dyno < FNewt) {
          Converged = true;
          break;
        }
        // Predicted to miss the tolerance within the iteration budget.
        const double Remaining =
            static_cast<double>(Opts.MaxNewtonIters - 1 - Iter);
        if (std::pow(Theta, Remaining) / (1.0 - Theta) * Dyno > FNewt) {
          Diverged = true;
          break;
        }
      } else if (Dyno < 0.01 * FNewt) {
        Converged = true;
        break;
      }
      DynOld = std::max(Dyno, Uround);
    }

    if (!Converged || Diverged) {
      // Newton failure: halve the step, force a fresh Jacobian.
      ++Result.Stats.RejectedSteps;
      LastRejected = true;
      H = std::abs(Step) * 0.5;
      NeedJacobian = true;
      NeedFactor = true;
      if (H < MinMagnitude) {
        Result.Status = IntegrationStatus::NewtonFailure;
        Result.FinalTime = T;
        Result.Detail = "simplified Newton failed at the minimum step size";
        return Result;
      }
      continue;
    }

    // Error estimate (ESTRAD): solve (Fac1 I - J) v = f0 + sum(DDi Zi)/h.
    for (size_t I = 0; I < N; ++I)
      ErrVec[I] =
          F0[I] + (DD1 * Z1[I] + DD2 * Z2[I] + DD3 * Z3[I]) / Step;
    RealDecomp.solve(ErrVec.data());
    ++Result.Stats.LuSolves;
    double Err = weightedRmsNorm(ErrVec.data(), Y.data(), N, Opts.AbsTol,
                                 Opts.RelTol);
    if (Err >= 1.0 && (FirstStep || LastRejected)) {
      // Stabilized second pass.
      for (size_t I = 0; I < N; ++I)
        Scratch[I] = Y[I] + ErrVec[I];
      Sys.rhs(T, Scratch.data(), F1.data());
      ++Result.Stats.RhsEvaluations;
      for (size_t I = 0; I < N; ++I)
        ErrVec[I] =
            F1[I] + (DD1 * Z1[I] + DD2 * Z2[I] + DD3 * Z3[I]) / Step;
      RealDecomp.solve(ErrVec.data());
      ++Result.Stats.LuSolves;
      Err = weightedRmsNorm(ErrVec.data(), Y.data(), N, Opts.AbsTol,
                            Opts.RelTol);
    }

    // Step-size proposal (penalize slow Newton convergence).
    const double NitD = static_cast<double>(Opts.MaxNewtonIters);
    const double Fac = Opts.Safety * (1.0 + 2.0 * NitD) /
                       (static_cast<double>(Iter + 1) + 2.0 * NitD);
    double Scale = Fac * std::pow(std::max(Err, 1e-10), -0.25);
    Scale = std::clamp(Scale, Opts.MinScale, Opts.MaxScale);

    if (Err >= 1.0) {
      ++Result.Stats.RejectedSteps;
      LastRejected = true;
      H = std::abs(Step) * std::min(Scale, 0.9);
      NeedFactor = true;
      continue;
    }

    // Accepted.
    Interp.rebuild(T, Step, Y.data(), Z1.data(), Z2.data(), Z3.data());
    for (size_t I = 0; I < N; ++I)
      Y[I] += Z3[I];
    T += Step;
    ++Result.Stats.AcceptedSteps;
    Result.LastStepSize = std::abs(Step);
    FirstStep = false;
    LastRejected = false;
    if (Observer)
      Observer->onStep(Interp);
    if (HitEnd && (TEnd - T) * Direction <= 0)
      break;

    Sys.rhs(T, Y.data(), F0.data());
    ++Result.Stats.RhsEvaluations;

    // Jacobian/factorization reuse policy: keep everything when Newton
    // contracted fast and the proposed step is close to the current one.
    const double HNew = std::abs(Step) * Scale;
    if (Theta < 1e-3 && Scale >= 1.0 && Scale <= 1.2) {
      H = std::abs(Step); // Keep H, J and the factorizations.
    } else {
      H = HNew;
      NeedJacobian = Theta > 1e-3;
      NeedFactor = true;
    }
  }
  Result.FinalTime = TEnd;
  return Result;
}
