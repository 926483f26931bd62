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
/// chunks on demand, one sub-batch at a time is assembled and
/// integrated, and each integrated sub-batch is handed to an OutcomeSink
/// before its trajectory storage is released and the next chunk is
/// pulled. The materializing run() entry points are sinks over the same
/// pipeline, so both paths are bit-identical.
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
  /// Streaming runs hold one sub-batch at a time, so engine-resident
  /// simulations are bounded by SubBatchSize.
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
  /// out of the vector; the engine releases the storage right after this
  /// returns either way.
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
/// no point were more than SubBatchSize simulations resident.
struct StreamReport {
  size_t Simulations = 0; ///< Total simulations streamed, in order.
  IntegrationStats TotalStats;
  ModeledTime IntegrationTime; ///< Summed over sub-batches.
  ModeledTime SimulationTime;
  double HostWallSeconds = 0.0;
  size_t Failures = 0;
  uint64_t SubBatches = 0;
  /// Peak engine-resident simulations: the largest sub-batch, whose
  /// parameterizations and outcomes are all the engine holds;
  /// <= SubBatchSize by construction. Also exported as the gauge
  /// `psg.engine.peak_resident_outcomes`.
  size_t PeakResidentOutcomes = 0;
  /// Frozen process-wide metrics taken when the run finished: solver
  /// step counters, per-sub-batch timings, host pool jobs and
  /// utilization. Serialized by io/ResultsIo and `psg-cli
  /// --metrics-json`.
  MetricsSnapshot Metrics;

  /// Modeled simulations per hour on the target architecture.
  double modeledThroughputPerHour() const {
    const double T = SimulationTime.total();
    return T > 0 ? 3600.0 * static_cast<double>(Simulations) / T : 0.0;
  }
};

/// Aggregated outcome of a materializing engine run: the stream's
/// aggregates plus every outcome.
struct EngineReport : StreamReport {
  std::vector<SimulationOutcome> Outcomes; ///< One per point, in order.
};

/// Runs point sets through a simulator personality in sub-batches.
class BatchEngine {
public:
  BatchEngine(const CostModel &Model, EngineOptions Opts);

  const EngineOptions &options() const { return Opts; }
  Simulator &simulator() { return *Sim; }

  /// Streams \p Gen through the simulator one sub-batch at a time: a
  /// chunk of points is pulled and parameterized, integrated, and handed
  /// to \p Sink before its trajectory storage is released and the next
  /// chunk is pulled. An empty source yields an empty report: no
  /// sub-batches, no outcomes.
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
