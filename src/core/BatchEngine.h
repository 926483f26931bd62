//===- core/BatchEngine.h - Batched parameter-space execution ---*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine that turns parameter-space points into batched simulations:
/// it splits large point sets into device-sized sub-batches (512 by
/// default, the throughput-maximizing value of the evaluation), runs each
/// through a Simulator personality, and aggregates numerical results,
/// operation counts and modeled device times.
///
/// Execution is a streaming pipeline with bounded residency: a
/// PointGenerator (or parameterization source) produces sub-batch-sized
/// chunks on demand, the next sub-batch is prepared while the current one
/// integrates (double-buffering that emulates GPU stream overlap in the
/// timing model), and each integrated sub-batch is handed to an
/// OutcomeSink before its trajectory storage is released. The
/// materializing run() entry points are sinks over the same pipeline, so
/// both paths are bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_CORE_BATCHENGINE_H
#define PSG_CORE_BATCHENGINE_H

#include "core/ParameterSpace.h"
#include "core/PointGenerator.h"
#include "sim/Simulator.h"
#include "support/Metrics.h"

#include <functional>
#include <memory>

namespace psg {

/// Engine configuration.
struct EngineOptions {
  /// Simulator personality ("psg-engine", "cpu-lsoda", ...).
  std::string SimulatorName = "psg-engine";
  /// Sub-batch size; 512 maximizes modeled throughput on the Titan X.
  /// Streaming runs double-buffer: sub-batch N+1's host-side preparation
  /// is modeled as overlapped with sub-batch N's device execution
  /// (CostModel::hiddenPrepareSeconds), so engine-resident simulations
  /// are bounded by 2 * SubBatchSize.
  uint64_t SubBatchSize = 512;
  /// Trajectory samples per simulation (0 = endpoints only, no record).
  size_t OutputSamples = 0;
  /// Integration window.
  double StartTime = 0.0;
  double EndTime = 1.0;
  /// Solver tolerances and limits.
  SolverOptions Solver;
};

/// Per-sub-batch consumer of a streaming engine run.
class OutcomeSink {
public:
  /// Defined inline so sink implementations outside psg_core (the
  /// analysis reducers) need no core symbols.
  virtual ~OutcomeSink() = default;

  /// Consumes the outcomes of one integrated sub-batch. \p FirstIndex is
  /// the global simulation index of Outcomes.front() within the run (the
  /// generator's emission order). The sink may move individual outcomes
  /// out of the vector; the engine releases and recycles the storage
  /// right after this returns either way.
  virtual void consumeSubBatch(size_t FirstIndex,
                               std::vector<SimulationOutcome> &Outcomes) = 0;
};

/// Pull-source of explicit parameterizations for
/// BatchEngine::streamParameterizations: appends up to \p MaxCount
/// entries to \p Out and returns the number appended (0 = exhausted).
using ParameterizationSource =
    std::function<size_t(size_t MaxCount, std::vector<Parameterization> &Out)>;

/// Aggregated outcome of a streaming run. Unlike EngineReport it carries
/// no outcomes: the sink consumed each sub-batch as it finished, so at
/// no point were more than 2 * SubBatchSize simulations resident.
struct StreamReport {
  size_t Simulations = 0; ///< Total simulations streamed, in order.
  IntegrationStats TotalStats;
  ModeledTime IntegrationTime; ///< Summed over sub-batches.
  ModeledTime SimulationTime;
  double HostWallSeconds = 0.0;
  size_t Failures = 0;
  uint64_t SubBatches = 0;
  /// Peak engine-resident simulations (prepared parameterizations plus
  /// live outcomes); <= 2 * SubBatchSize by construction. Also
  /// exported as the gauge `psg.engine.peak_resident_outcomes`.
  size_t PeakResidentOutcomes = 0;
  /// Host-side sub-batch preparation wall time (generation, point
  /// application, spec assembly) and the part of it the cost model
  /// hides beneath device execution through double-buffering
  /// (CostModel::hiddenPrepareSeconds).
  double PrepareWallSeconds = 0.0;
  double HiddenPrepareSeconds = 0.0;
  /// HiddenPrepareSeconds / PrepareWallSeconds; 0 for a run of one
  /// sub-batch, whose preparation nothing hides.
  /// Also exported as the gauge `psg.engine.pipeline.overlap_ratio`.
  double OverlapRatio = 0.0;
  /// Frozen process-wide metrics taken when the run finished.
  MetricsSnapshot Metrics;

  /// Modeled simulations per hour on the target architecture.
  double modeledThroughputPerHour() const {
    const double T = SimulationTime.total();
    return T > 0 ? 3600.0 * static_cast<double>(Simulations) / T : 0.0;
  }
};

/// Aggregated outcome of a materializing engine run.
struct EngineReport {
  std::vector<SimulationOutcome> Outcomes; ///< One per point, in order.
  IntegrationStats TotalStats;
  ModeledTime IntegrationTime; ///< Summed over sub-batches.
  ModeledTime SimulationTime;
  double HostWallSeconds = 0.0;
  size_t Failures = 0;
  uint64_t SubBatches = 0;
  /// Frozen process-wide metrics taken when the run finished: solver
  /// step counters, per-sub-batch timings, host pool jobs and
  /// utilization. Serialized by io/ResultsIo and `psg-cli
  /// --metrics-json`.
  MetricsSnapshot Metrics;

  /// Modeled simulations per hour on the target architecture.
  double modeledThroughputPerHour() const {
    const double T = SimulationTime.total();
    return T > 0 ? 3600.0 * static_cast<double>(Outcomes.size()) / T : 0.0;
  }
};

/// Runs point sets through a simulator personality in sub-batches.
class BatchEngine {
public:
  BatchEngine(const CostModel &Model, EngineOptions Opts);

  const EngineOptions &options() const { return Opts; }
  Simulator &simulator() { return *Sim; }

  /// Streams \p Gen through the simulator: chunks of points are pulled
  /// and parameterized on demand, the next sub-batch is prepared while
  /// the current one integrates, and every integrated sub-batch is handed
  /// to \p Sink before its trajectory storage is released. An empty
  /// source yields an empty report: no sub-batches, no outcomes.
  StreamReport stream(const ParameterSpace &Space, PointGenerator &Gen,
                      OutcomeSink &Sink);

  /// Streaming run over explicit parameterizations pulled from
  /// \p Source.
  StreamReport streamParameterizations(const ReactionNetwork &Net,
                                       const ParameterizationSource &Source,
                                       OutcomeSink &Sink);

  /// Runs one simulation per parameter-space point, materializing every
  /// outcome (a materializing sink over stream()).
  EngineReport run(const ParameterSpace &Space,
                   const std::vector<std::vector<double>> &Points);

  /// Runs explicit parameterizations against \p Net, materializing every
  /// outcome.
  EngineReport runParameterizations(const ReactionNetwork &Net,
                                    std::vector<Parameterization> Params);

private:
  EngineOptions Opts;
  CostModel Model;
  std::unique_ptr<Simulator> Sim;

  /// Compilation cache: the last network's compiled model, keyed by its
  /// structural fingerprint. Every sub-batch of a run — and every later
  /// run over the same network — shares this one compilation, so an
  /// engine performs exactly one compile per distinct network.
  std::shared_ptr<const CompiledModel> CachedModel;
  uint64_t CachedFingerprint = 0;

  /// Returns the compiled form of \p Net, reusing the cache on a
  /// fingerprint match.
  std::shared_ptr<const CompiledModel> compiled(const ReactionNetwork &Net);
};

} // namespace psg

#endif // PSG_CORE_BATCHENGINE_H
