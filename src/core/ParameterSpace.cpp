//===- core/ParameterSpace.cpp --------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "core/ParameterSpace.h"

#include <cmath>

using namespace psg;

size_t ParameterSpace::addAxis(ParameterAxis Axis) {
  assert(Axis.Lo < Axis.Hi && "empty axis range");
  assert((!Axis.LogScale || Axis.Lo > 0.0) &&
         "log axes need a positive lower bound");
  if (Axis.Target == AxisTarget::InitialConcentration)
    assert(Axis.SpeciesIndex < Net->numSpecies() && "bad species index");
  else {
    assert(!Axis.Reactions.empty() && "rate axis without target reactions");
    for (size_t R : Axis.Reactions) {
      assert(R < Net->numReactions() && "bad reaction index");
      (void)R;
    }
  }
  Axes.push_back(std::move(Axis));
  return Axes.size() - 1;
}

double ParameterSpace::axisValueFromUnit(const ParameterAxis &Axis,
                                         double U) const {
  if (Axis.LogScale)
    return std::exp(std::log(Axis.Lo) +
                    (std::log(Axis.Hi) - std::log(Axis.Lo)) * U);
  return Axis.Lo + (Axis.Hi - Axis.Lo) * U;
}

std::vector<double> ParameterSpace::gridAxisValues(size_t AxisIndex,
                                                   size_t Count) const {
  assert(AxisIndex < Axes.size() && "bad axis index");
  assert(Count >= 1 && "empty axis resolution");
  std::vector<double> Values(Count);
  for (size_t I = 0; I < Count; ++I) {
    const double U = Count == 1 ? 0.5
                                : static_cast<double>(I) /
                                      static_cast<double>(Count - 1);
    Values[I] = axisValueFromUnit(Axes[AxisIndex], U);
  }
  return Values;
}

std::vector<std::vector<double>>
ParameterSpace::gridSample(const std::vector<size_t> &PointsPerAxis) const {
  assert(PointsPerAxis.size() == Axes.size() &&
         "one resolution per axis required");
  // Per-axis value lists.
  std::vector<std::vector<double>> Values(Axes.size());
  for (size_t A = 0; A < Axes.size(); ++A)
    Values[A] = gridAxisValues(A, PointsPerAxis[A]);
  // Cartesian product, last axis fastest.
  size_t Total = 1;
  for (size_t Count : PointsPerAxis)
    Total *= Count;
  std::vector<std::vector<double>> Points;
  Points.reserve(Total);
  std::vector<size_t> Index(Axes.size(), 0);
  for (size_t P = 0; P < Total; ++P) {
    std::vector<double> Point(Axes.size());
    for (size_t A = 0; A < Axes.size(); ++A)
      Point[A] = Values[A][Index[A]];
    Points.push_back(std::move(Point));
    for (size_t A = Axes.size(); A-- > 0;) {
      if (++Index[A] < PointsPerAxis[A])
        break;
      Index[A] = 0;
    }
  }
  return Points;
}

std::vector<std::vector<double>>
ParameterSpace::randomSample(size_t Count, Rng &Generator) const {
  std::vector<std::vector<double>> Points(Count);
  for (auto &Point : Points) {
    Point.resize(Axes.size());
    for (size_t A = 0; A < Axes.size(); ++A)
      Point[A] = axisValueFromUnit(Axes[A], Generator.uniform());
  }
  return Points;
}

std::vector<double>
ParameterSpace::fromUnitCube(const std::vector<double> &U) const {
  assert(U.size() == Axes.size() && "unit-cube dimension mismatch");
  std::vector<double> Point(Axes.size());
  for (size_t A = 0; A < Axes.size(); ++A)
    Point[A] = axisValueFromUnit(Axes[A], U[A]);
  return Point;
}

Parameterization
ParameterSpace::applyPoint(const std::vector<double> &Point) const {
  assert(Point.size() == Axes.size() && "one value per axis required");
  Parameterization P;
  P.InitialState = Net->initialState();
  P.RateConstants.resize(Net->numReactions());
  for (size_t R = 0; R < Net->numReactions(); ++R)
    P.RateConstants[R] = Net->reaction(R).RateConstant;

  for (size_t A = 0; A < Axes.size(); ++A) {
    const ParameterAxis &Axis = Axes[A];
    const double Value = Point[A];
    switch (Axis.Target) {
    case AxisTarget::InitialConcentration:
      P.InitialState[Axis.SpeciesIndex] = Value;
      break;
    case AxisTarget::RateConstant:
    case AxisTarget::RateConstantGroup:
      for (size_t R : Axis.Reactions)
        P.RateConstants[R] =
            Axis.Multiplicative ? P.RateConstants[R] * Value : Value;
      break;
    }
  }
  return P;
}
