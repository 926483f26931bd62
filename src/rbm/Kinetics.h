//===- rbm/Kinetics.h - Shared kinetics kernel primitives -------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic primitives shared by every compiled kinetics kernel:
/// the integer power and the saturating-factor evaluations
/// (Michaelis-Menten, Hill activation, Hill repression) with their
/// derivatives. The compiled kernels (rbm/MassAction.cpp) and the
/// reference evaluators both include this header so a rate factor is
/// computed by exactly one definition — the bit-exactness contract
/// between them reduces to "same inputs through the same inline
/// function".
///
//===----------------------------------------------------------------------===//

#ifndef PSG_RBM_KINETICS_H
#define PSG_RBM_KINETICS_H

#include <algorithm>
#include <cmath>

namespace psg {

/// Largest exponent evaluated as a plain sequential product. Up to this
/// bound ipow() is pinned bit-exact to the historical left-to-right
/// multiplication loop (R = ((1*X)*X)*X...), which is what keeps
/// compiled-kernel trajectories bit-identical across refactors: nearly
/// every stoichiometric coefficient and Hill exponent in practice is
/// <= 3. Above the bound exponentiation-by-squaring takes over; it
/// performs O(log E) multiplications but associates them differently, so
/// raising this constant is a bit-pattern-breaking change (pinned by
/// IpowTest in tests/rhs_kernels_test.cpp).
constexpr unsigned IpowLinearMax = 3;

/// Integer power. Sequential product for E <= IpowLinearMax (bit-exact
/// contract), exponentiation by squaring above.
inline double ipow(double X, unsigned E) {
  if (E <= IpowLinearMax) {
    double R = 1.0;
    for (unsigned I = 0; I < E; ++I)
      R *= X;
    return R;
  }
  double R = 1.0;
  double B = X;
  for (;;) {
    if (E & 1u)
      R *= B;
    E >>= 1u;
    if (E == 0)
      return R;
    B *= B;
  }
}

/// S^n for the Hill factors: the integer fast path when the exponent is a
/// small whole number (HillNInt >= 0), std::pow otherwise. \p S must
/// already be clamped non-negative.
inline double hillPower(double S, double HillN, int HillNInt) {
  return HillNInt >= 0 ? ipow(S, static_cast<unsigned>(HillNInt))
                       : std::pow(S, HillN);
}

/// Michaelis-Menten factor S/(Km + S), with the substrate clamped to
/// non-negative values as every saturating evaluation does.
inline double mmFactor(double Km, double S) {
  S = std::max(S, 0.0);
  return S / (Km + S);
}

/// d/dS of the Michaelis-Menten factor: Km/(Km + S)^2.
inline double mmFactorDerivative(double Km, double S) {
  S = std::max(S, 0.0);
  const double Denom = Km + S;
  return Km / (Denom * Denom);
}

/// Hill factor from a precomputed S^n: activation Sn/(Kn + Sn) or
/// repression Kn/(Kn + Sn).
inline double hillFactor(double KnPow, double Sn, bool Repress) {
  return Repress ? KnPow / (KnPow + Sn) : Sn / (KnPow + Sn);
}

/// d/dS of the Hill factor at S (>= 0, pre-clamped), from the
/// precomputed S^n: +/- n*Kn*Sn / (S*(Kn+Sn)^2), with the S == 0 limit
/// of the n == 1 case handled explicitly.
inline double hillFactorDerivative(double KnPow, double HillN, double HillK,
                                   double S, double Sn, bool Repress) {
  const double Sign = Repress ? -1.0 : 1.0;
  if (S == 0.0)
    return HillN == 1.0 ? Sign / HillK : 0.0;
  const double Denom = KnPow + Sn;
  return Sign * HillN * KnPow * Sn / (S * Denom * Denom);
}

} // namespace psg

#endif // PSG_RBM_KINETICS_H
