//===- io/ResultsIo.h - Result serialization --------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CSV serialization of analysis products (trajectories, PSA maps, Sobol
/// tables) and the psg-metrics-v1 JSON file of a metrics snapshot. All
/// benches write their raw data through these helpers so EXPERIMENTS.md
/// plots can be regenerated.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_IO_RESULTSIO_H
#define PSG_IO_RESULTSIO_H

#include "analysis/Psa.h"
#include "analysis/Sobol.h"
#include "ode/Trajectory.h"
#include "rbm/ReactionNetwork.h"
#include "support/Csv.h"
#include "support/Metrics.h"

namespace psg {

/// Renders a trajectory as CSV (time plus one column per species; species
/// names come from \p Net when given).
CsvWriter trajectoryToCsv(const Trajectory &Traj,
                          const ReactionNetwork *Net = nullptr);

/// Renders a PSA-2D map as CSV rows (axis0, axis1, metric).
CsvWriter psa2dToCsv(const Psa2dResult &Result, const std::string &Axis0,
                     const std::string &Axis1,
                     const std::string &MetricName);

/// Renders a Sobol table as CSV (factor, S1, S1conf, ST, STconf).
CsvWriter sobolToCsv(const SobolResult &Result);

/// Writes \p Snapshot to \p Path as the psg-metrics-v1 JSON document.
Status saveMetricsJson(const MetricsSnapshot &Snapshot,
                       const std::string &Path);

} // namespace psg

#endif // PSG_IO_RESULTSIO_H
