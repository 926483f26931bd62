//===- perfbench/src/Workloads.h - The three case studies -------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's three case studies as benchmark workloads, each driven
/// through the public analysis entry points over a BatchEngine:
///
///   psa2d-autophagy     runPsa2d, 16-unit autophagy surrogate, psg-engine
///   sobol-metabolic     runSobolSa, metabolic surrogate, psg-engine
///   pe-metabolic-lsoda  runPso with a bench-owned objective that calls
///                       BatchEngine::run on cpu-lsoda
///
/// The seed jitters the axis bounds (PSA, Sobol) and seeds the Saltelli
/// rotation and the swarm, so each seed simulates other parameterizations.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Replay.h"
#include "Spans.h"

#include "core/BatchEngine.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one complete analysis did.
struct AnalysisCounts {
  size_t Simulations = 0;
  size_t Failures = 0; ///< Simulations that did not reach the end time.
  double ModeledSeconds = 0.0; ///< vgpu cost model, not measured.
  psg::IntegrationStats Stats;
};

/// Verdict of the output check.
struct CheckOutcome {
  size_t Checked = 0;
  size_t Mismatches = 0;
  std::vector<std::string> Lines; ///< One human-readable line per check.
};

/// Bench-measured analysis-layer seconds, accumulated over traced runs.
struct AnalysisLayerTimes {
  double ReduceSeconds = 0.0;    ///< Inside the bench's reducers.
  double FitnessSeconds = 0.0;   ///< Scoring inside the PSO objective.
  double ObjectiveSeconds = 0.0; ///< Whole PSO objective calls.
  std::vector<double> EngineCallSeconds; ///< Bench-timed engine calls.
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the model and parameter space, constructs the BatchEngine and
  /// makes one single-simulation engine call, which forces the lazy
  /// compile, the worker-pool start and workspace allocation.
  virtual void setup() = 0;

  /// Runs one complete analysis. Opens bench spans on \p Spans and
  /// accumulates layer times when it is not null.
  virtual AnalysisCounts analyze(SpanLog *Spans) = 0;

  /// Re-integrates a few sampled points of the last analysis through
  /// createSolver at a tighter tolerance and compares the reduced values.
  virtual CheckOutcome check() = 0;

  /// A fixed sample of this workload's parameterizations and engine path.
  virtual ReplayInput replayInput(size_t SampleSize) = 0;

  AnalysisLayerTimes Layers;
};

/// Names of the workloads, in the order `--workload all` runs them.
const std::vector<std::string> &workloadNames();

/// Creates workload \p Name for \p Seed; null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
