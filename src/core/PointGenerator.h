//===- core/PointGenerator.h - Lazy parameter-space designs -----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy point generators over a ParameterSpace: the sampling designs of
/// the analyses (full-factorial grids, the Saltelli matrix set of the
/// Sobol analysis) emitted in sub-batch-sized chunks on demand instead of
/// materializing the whole design up front. Generators are the producer
/// side of BatchEngine::stream: a 10^6-point sweep never holds more than
/// one chunk of points (and one sub-batch of parameterizations and
/// outcomes) at a time.
///
/// Every generator is bit-identical to its materializing counterpart on
/// ParameterSpace: chunk boundaries never change a coordinate.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_CORE_POINTGENERATOR_H
#define PSG_CORE_POINTGENERATOR_H

#include "core/ParameterSpace.h"

#include <memory>

namespace psg {

/// A stream of parameter-space points.
class PointGenerator {
public:
  virtual ~PointGenerator();

  /// Total points the full stream yields.
  virtual size_t totalPoints() const = 0;

  /// Appends up to \p MaxCount further points to \p Out; returns the
  /// number appended (0 when the stream is exhausted).
  virtual size_t next(size_t MaxCount,
                      std::vector<std::vector<double>> &Out) = 0;
};

/// Full-factorial grid over all axes of \p Space, row-major with the
/// last axis fastest — chunked gridSample().
std::unique_ptr<PointGenerator>
makeGridGenerator(const ParameterSpace &Space,
                  std::vector<size_t> PointsPerAxis);

/// The Saltelli design of the Sobol analysis over the K axes of
/// \p Space: N rows of matrix A, N of B, the K radial blocks AB_i, and
/// (when \p SecondOrder) the K blocks BA_i, in that order. Rows are
/// recomputed from the Halton sequence on demand under the
/// Cranley-Patterson rotation \p Shift (2K values in [0,1)), so the
/// generator state is O(K).
std::unique_ptr<PointGenerator>
makeSaltelliGenerator(const ParameterSpace &Space, size_t BaseSamples,
                      std::vector<double> Shift, bool SecondOrder);

/// Streams an already-materialized point set (not owned; \p Points must
/// outlive the generator). Lets explicit designs — a PSO swarm, a test
/// vector — ride the same streaming path.
std::unique_ptr<PointGenerator>
makeMaterializedGenerator(const std::vector<std::vector<double>> &Points);

/// The Halton low-discrepancy point (Index >= 1) in \p Dims dimensions.
std::vector<double> haltonPoint(uint64_t Index, size_t Dims);

} // namespace psg

#endif // PSG_CORE_POINTGENERATOR_H
