//===- core/ParameterSpace.h - Parameter space definition -------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parameter space over a reaction network: named axes that control
/// initial concentrations, single kinetic constants, or whole groups of
/// kinetic constants (as the autophagy model's P9 parameter rescales 5476
/// constants at once), together with the sampling schemes the analyses
/// use (grids, random, log-uniform).
///
//===----------------------------------------------------------------------===//

#ifndef PSG_CORE_PARAMETERSPACE_H
#define PSG_CORE_PARAMETERSPACE_H

#include "rbm/ReactionNetwork.h"
#include "support/Random.h"

#include <string>
#include <vector>

namespace psg {

/// What a parameter axis manipulates.
enum class AxisTarget {
  InitialConcentration, ///< Sets one species' initial concentration.
  RateConstant,         ///< Sets one reaction's kinetic constant.
  RateConstantGroup     ///< Sets (or scales) a group of kinetic constants.
};

/// One dimension of the parameter space.
struct ParameterAxis {
  std::string Name;
  AxisTarget Target = AxisTarget::RateConstant;
  double Lo = 0.0;
  double Hi = 1.0;
  bool LogScale = false; ///< Sample log-uniformly within [Lo, Hi].
  unsigned SpeciesIndex = 0;      ///< For InitialConcentration.
  std::vector<size_t> Reactions;  ///< For RateConstant(Group).
  /// For RateConstantGroup: multiply baselines by the axis value instead
  /// of overwriting them.
  bool Multiplicative = false;
};

/// A concrete parameterization produced from a space point.
struct Parameterization {
  std::vector<double> RateConstants;
  std::vector<double> InitialState;
};

/// An ordered set of axes plus samplers and point application.
class ParameterSpace {
public:
  explicit ParameterSpace(const ReactionNetwork &Net) : Net(&Net) {}

  /// Adds an axis; returns its index. Axis targets are validated against
  /// the network (asserted).
  size_t addAxis(ParameterAxis Axis);

  size_t numAxes() const { return Axes.size(); }
  const ParameterAxis &axis(size_t I) const { return Axes[I]; }
  const ReactionNetwork &network() const { return *Net; }

  /// Full-factorial grid: PointsPerAxis[i] values on axis i (endpoints
  /// included; log-spaced on log axes). Returns row-major points.
  std::vector<std::vector<double>>
  gridSample(const std::vector<size_t> &PointsPerAxis) const;

  /// The \p Count grid values of axis \p AxisIndex (endpoints included;
  /// log-spaced on log axes) — exactly the per-axis values gridSample
  /// combines, so analyses can label grid axes without materializing the
  /// cartesian product.
  std::vector<double> gridAxisValues(size_t AxisIndex, size_t Count) const;

  /// \p Count points sampled independently uniform (or log-uniform).
  std::vector<std::vector<double>> randomSample(size_t Count,
                                                Rng &Generator) const;

  /// Maps a unit-cube row (each coordinate in [0,1)) onto axis ranges.
  std::vector<double> fromUnitCube(const std::vector<double> &U) const;

  /// Applies \p Point (one value per axis) to the network's baseline,
  /// producing the concrete rate constants and initial state.
  Parameterization applyPoint(const std::vector<double> &Point) const;

private:
  const ReactionNetwork *Net;
  std::vector<ParameterAxis> Axes;

  double axisValueFromUnit(const ParameterAxis &Axis, double U) const;
};

} // namespace psg

#endif // PSG_CORE_PARAMETERSPACE_H
