//===- ode/Dopri5.cpp -----------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// Coefficients follow Dormand & Prince (1980) and Hairer, Norsett & Wanner,
// "Solving Ordinary Differential Equations I" (DOPRI5).
//
//===----------------------------------------------------------------------===//

#include "ode/Dopri5.h"

#include "linalg/VectorOps.h"
#include "ode/SolverWorkspace.h"
#include "ode/StepControl.h"

#include <algorithm>
#include <cmath>

using namespace psg;

namespace {
constexpr double C2 = 1.0 / 5, C3 = 3.0 / 10, C4 = 4.0 / 5, C5 = 8.0 / 9;
constexpr double A21 = 1.0 / 5;
constexpr double A31 = 3.0 / 40, A32 = 9.0 / 40;
constexpr double A41 = 44.0 / 45, A42 = -56.0 / 15, A43 = 32.0 / 9;
constexpr double A51 = 19372.0 / 6561, A52 = -25360.0 / 2187,
                 A53 = 64448.0 / 6561, A54 = -212.0 / 729;
constexpr double A61 = 9017.0 / 3168, A62 = -355.0 / 33, A63 = 46732.0 / 5247,
                 A64 = 49.0 / 176, A65 = -5103.0 / 18656;
// Row 7 doubles as the 5th-order weights (FSAL).
constexpr double A71 = 35.0 / 384, A73 = 500.0 / 1113, A74 = 125.0 / 192,
                 A75 = -2187.0 / 6784, A76 = 11.0 / 84;
// Error weights (5th minus embedded 4th order).
constexpr double E1 = 71.0 / 57600, E3 = -71.0 / 16695, E4 = 71.0 / 1920,
                 E5 = -17253.0 / 339200, E6 = 22.0 / 525, E7 = -1.0 / 40;
// Dense-output weights.
constexpr double D1 = -12715105075.0 / 11282082432.0,
                 D3 = 87487479700.0 / 32700410799.0,
                 D4 = -10690763975.0 / 1880347072.0,
                 D5 = 701980252875.0 / 199316789632.0,
                 D6 = -1453857185.0 / 822651844.0,
                 D7 = 69997945.0 / 29380423.0;

} // namespace

/// 4th-order continuous extension of a DOPRI5 step. bind() only records
/// the step's arrays; the polynomial is built on the first evaluate() in
/// the step and reused by later ones, so a step no observer samples costs
/// nothing. The bound arrays must stay unchanged until the next bind(),
/// which is why the interpolant is valid only during StepObserver::onStep.
class Dopri5Solver::Interpolant : public StepInterpolant {
public:
  explicit Interpolant(size_t N)
      : N(N), Cont2(N), Cont3(N), Cont4(N), Cont5(N) {}

  /// Binds the step [T, T + H] from its start state \p Y0, its end state
  /// \p Y1 and its stages.
  void bind(double T, double H, const double *Y0, const double *Y1,
            const double *K1, const double *K3, const double *K4,
            const double *K5, const double *K6, const double *K7) {
    TBegin = T;
    TEnd = T + H;
    Step = H;
    this->Y0 = Y0;
    this->Y1 = Y1;
    this->K1 = K1;
    this->K3 = K3;
    this->K4 = K4;
    this->K5 = K5;
    this->K6 = K6;
    this->K7 = K7;
    Built = false;
  }

  double beginTime() const override { return TBegin; }
  double endTime() const override { return TEnd; }

  void evaluate(double T, double *YOut) const override {
    if (!Built)
      build();
    const double S = (T - TBegin) / (TEnd - TBegin);
    const double S1 = 1.0 - S;
    for (size_t I = 0; I < N; ++I)
      YOut[I] = Y0[I] +
                S * (Cont2[I] +
                     S1 * (Cont3[I] + S * (Cont4[I] + S1 * Cont5[I])));
  }

private:
  /// Hairer's CONT coefficients; the first one is the start state Y0.
  void build() const {
    const double H = Step;
    for (size_t I = 0; I < N; ++I) {
      const double YDiff = Y1[I] - Y0[I];
      const double Bspl = H * K1[I] - YDiff;
      Cont2[I] = YDiff;
      Cont3[I] = Bspl;
      Cont4[I] = YDiff - H * K7[I] - Bspl;
      Cont5[I] = H * (D1 * K1[I] + D3 * K3[I] + D4 * K4[I] + D5 * K5[I] +
                      D6 * K6[I] + D7 * K7[I]);
    }
    Built = true;
  }

  size_t N;
  double TBegin = 0.0, TEnd = 0.0, Step = 0.0;
  const double *Y0 = nullptr, *Y1 = nullptr, *K1 = nullptr, *K3 = nullptr,
               *K4 = nullptr, *K5 = nullptr, *K6 = nullptr, *K7 = nullptr;
  mutable bool Built = false;
  mutable std::vector<double> Cont2, Cont3, Cont4, Cont5;
};

/// Per-solver working storage, reused across integrate() calls. Every
/// vector is fully written before it is read within a step, so stale
/// contents from a previous simulation cannot leak into the numerics.
struct Dopri5Solver::Workspace {
  size_t N = 0;
  std::vector<double> K1, K2, K3, K4, K5, K6, K7;
  std::vector<double> YStage, YNew, ErrVec, Stage6;
  Interpolant Interp{0};

  /// Sizes the buffers for \p Dim; returns true when already sized.
  bool prepare(size_t Dim) {
    if (Dim == N)
      return true;
    N = Dim;
    for (std::vector<double> *V :
         {&K1, &K2, &K3, &K4, &K5, &K6, &K7, &YStage, &YNew, &ErrVec,
          &Stage6})
      V->assign(Dim, 0.0);
    Interp = Interpolant(Dim);
    return false;
  }
};

Dopri5Solver::Dopri5Solver() : Ws(std::make_unique<Workspace>()) {}
Dopri5Solver::~Dopri5Solver() = default;

IntegrationResult Dopri5Solver::integrate(const OdeSystem &Sys, double T0,
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

  if (Ws->prepare(N))
    noteSolverWorkspaceReuse();
  std::vector<double> &K1 = Ws->K1, &K2 = Ws->K2, &K3 = Ws->K3, &K4 = Ws->K4,
                      &K5 = Ws->K5, &K6 = Ws->K6, &K7 = Ws->K7;
  std::vector<double> &YStage = Ws->YStage, &ErrVec = Ws->ErrVec,
                      &Stage6 = Ws->Stage6;
  // The state alternates between the caller's Y and the workspace's YNew:
  // an accepted step swaps the two pointers instead of copying, and every
  // return leaves the current state in Y with one copy.
  double *YCur = Y.data(), *YNew = Ws->YNew.data();
  auto Finish = [&] {
    if (YCur != Y.data())
      std::copy(YCur, YCur + N, Y.begin());
    return std::move(Result);
  };

  Sys.rhs(T0, YCur, K1.data());
  ++Result.Stats.RhsEvaluations;
  double H = selectInitialStep(Sys, T0, YCur, K1.data(), TEnd, Opts,
                               /*Order=*/5, Result.Stats.RhsEvaluations);
  const double MaxStep =
      Opts.MaxStep > 0 ? Opts.MaxStep : std::abs(TEnd - T0);
  PiController Controller(/*Order=*/5, Opts.Safety, Opts.MinScale,
                          Opts.MaxScale, /*Beta=*/0.04);
  auto &Interp = Ws->Interp;

  // Hairer's stiffness counters.
  unsigned StiffHits = 0, NonStiffHits = 0;

  double T = T0;
  while ((TEnd - T) * Direction > 0) {
    if (Result.Stats.Steps >= Opts.MaxSteps) {
      Result.Status = IntegrationStatus::MaxStepsExceeded;
      Result.FinalTime = T;
      Result.LastStepSize = H;
      return Finish();
    }
    H = std::min(H, MaxStep);
    double Step = Direction * H;
    if ((T + Step - TEnd) * Direction > 0)
      Step = TEnd - T;
    const double MinMagnitude = 1e-14 * std::max(1.0, std::abs(T));
    if (std::abs(Step) < MinMagnitude) {
      Result.Status = IntegrationStatus::StepSizeTooSmall;
      Result.FinalTime = T;
      return Finish();
    }

    for (size_t I = 0; I < N; ++I)
      YStage[I] = YCur[I] + Step * A21 * K1[I];
    Sys.rhs(T + C2 * Step, YStage.data(), K2.data());
    for (size_t I = 0; I < N; ++I)
      YStage[I] = YCur[I] + Step * (A31 * K1[I] + A32 * K2[I]);
    Sys.rhs(T + C3 * Step, YStage.data(), K3.data());
    for (size_t I = 0; I < N; ++I)
      YStage[I] = YCur[I] + Step * (A41 * K1[I] + A42 * K2[I] + A43 * K3[I]);
    Sys.rhs(T + C4 * Step, YStage.data(), K4.data());
    for (size_t I = 0; I < N; ++I)
      YStage[I] = YCur[I] + Step * (A51 * K1[I] + A52 * K2[I] + A53 * K3[I] +
                                    A54 * K4[I]);
    Sys.rhs(T + C5 * Step, YStage.data(), K5.data());
    for (size_t I = 0; I < N; ++I)
      Stage6[I] = YCur[I] + Step * (A61 * K1[I] + A62 * K2[I] + A63 * K3[I] +
                                    A64 * K4[I] + A65 * K5[I]);
    Sys.rhs(T + Step, Stage6.data(), K6.data());
    for (size_t I = 0; I < N; ++I)
      YNew[I] = YCur[I] + Step * (A71 * K1[I] + A73 * K3[I] + A74 * K4[I] +
                                  A75 * K5[I] + A76 * K6[I]);
    Sys.rhs(T + Step, YNew, K7.data()); // FSAL stage.
    Result.Stats.RhsEvaluations += 6;
    ++Result.Stats.Steps;

    for (size_t I = 0; I < N; ++I)
      ErrVec[I] = Step * (E1 * K1[I] + E3 * K3[I] + E4 * K4[I] + E5 * K5[I] +
                          E6 * K6[I] + E7 * K7[I]);
    if (!allFinite(YNew, N)) {
      ++Result.Stats.RejectedSteps;
      Controller.notifyRejected();
      H *= 0.1;
      if (H < MinMagnitude) {
        Result.Status = IntegrationStatus::NonFiniteState;
        Result.FinalTime = T;
        return Finish();
      }
      continue;
    }

    const double Err = weightedRmsNorm2(ErrVec.data(), YCur, YNew, N,
                                        Opts.AbsTol, Opts.RelTol);
    const double Scale = Controller.scaleFactor(Err);
    if (Err > 1.0) {
      ++Result.Stats.RejectedSteps;
      Controller.notifyRejected();
      H = std::abs(Step) * Scale;
      continue;
    }

    // Stiffness detection: h * ||f(y7) - f(y6)|| / ||y7 - y6|| estimates
    // |h * lambda| along the step; persistently > 3.25 means the step size
    // is stability- rather than accuracy-limited.
    if (Opts.EnableStiffnessDetection &&
        (Result.Stats.AcceptedSteps % 10 == 0 || StiffHits > 0)) {
      double Num = 0.0, Den = 0.0;
      for (size_t I = 0; I < N; ++I) {
        const double DK = K7[I] - K6[I];
        const double DY = YNew[I] - Stage6[I];
        Num += DK * DK;
        Den += DY * DY;
      }
      if (Den > 0.0) {
        const double HLambda = std::abs(Step) * std::sqrt(Num / Den);
        if (HLambda > 3.25) {
          NonStiffHits = 0;
          if (++StiffHits == 15) {
            Result.Status = IntegrationStatus::StiffnessDetected;
            Result.FinalTime = T;
            Result.LastStepSize = std::abs(Step);
            Result.Detail = "h*lambda stayed above 3.25 for 15 tests";
            return Finish();
          }
        } else if (StiffHits > 0 && ++NonStiffHits == 6) {
          StiffHits = 0;
        }
      }
    }

    const double TNew = T + Step;
    if (Observer) {
      Interp.bind(T, Step, YCur, YNew, K1.data(), K3.data(), K4.data(),
                  K5.data(), K6.data(), K7.data());
      Observer->onStep(Interp);
    }
    std::swap(YCur, YNew);
    K1.swap(K7); // FSAL.
    T = TNew;
    ++Result.Stats.AcceptedSteps;
    Result.LastStepSize = std::abs(Step);
    H = std::abs(Step) * Scale;
  }
  Result.FinalTime = TEnd;
  return Finish();
}
