//===- sim/Simulator.h - Batch simulator interface --------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-simulation interface shared by the engine and the four
/// comparator personalities of the evaluation. A simulator takes an RBM
/// and a batch of parameterizations, really integrates every simulation
/// on the host, and reports (a) the numerical results, (b) the exact
/// operation counts, and (c) the modeled integration/simulation times on
/// its execution architecture.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SIM_SIMULATOR_H
#define PSG_SIM_SIMULATOR_H

#include "ode/IntegrationResult.h"
#include "ode/SolverOptions.h"
#include "ode/Trajectory.h"
#include "rbm/MassAction.h"
#include "vgpu/CostModel.h"

#include <memory>
#include <string>
#include <vector>

namespace psg {

/// One batch of simulations over a common model and time window.
///
/// Per-simulation parameterizations are optional: when RateConstantSets /
/// InitialStates are shorter than Batch, the missing entries use the
/// model defaults. OutputSamples > 0 records each trajectory on a uniform
/// grid including both endpoints.
struct BatchSpec {
  const ReactionNetwork *Model = nullptr;
  /// Optional pre-compiled form of *Model. When set (it must be the
  /// compilation of *Model), simulators reuse it instead of compiling the
  /// network again — the zero-recompile dispatch path batch engines use
  /// across sub-batches. Counted by `psg.rbm.compile_reuses`.
  std::shared_ptr<const CompiledModel> Compiled;
  uint64_t Batch = 1;
  double StartTime = 0.0;
  double EndTime = 1.0;
  size_t OutputSamples = 0;
  SolverOptions Options;
  std::vector<std::vector<double>> RateConstantSets;
  std::vector<std::vector<double>> InitialStates;
};

/// Outcome of one simulation of the batch.
struct SimulationOutcome {
  IntegrationResult Result;
  Trajectory Dynamics; ///< Empty when OutputSamples == 0.
  std::string SolverUsed;
};

/// Outcome of the whole batch.
struct BatchResult {
  std::vector<SimulationOutcome> Outcomes;
  IntegrationStats TotalStats;  ///< Summed over the batch.
  SimulationWork AverageWork;   ///< Per-simulation average for the model.
  ModeledTime IntegrationTime;  ///< Modeled numerical-integration time.
  ModeledTime SimulationTime;   ///< Modeled end-to-end time (with I/O).
  double HostWallSeconds = 0.0; ///< Real wall time of this (host) run.
  size_t Failures = 0;          ///< Simulations that did not reach TEnd.

  /// Fraction of simulations that completed.
  double successRate() const {
    return Outcomes.empty()
               ? 0.0
               : 1.0 - static_cast<double>(Failures) /
                           static_cast<double>(Outcomes.size());
  }
};

/// A batch simulator personality.
class Simulator {
public:
  virtual ~Simulator();

  /// Stable identifier used in the comparison maps (e.g. "psg-engine").
  virtual std::string name() const = 0;

  /// The execution strategy this personality models.
  virtual Backend backend() const = 0;

  /// Runs the batch (really, on the host) and models its device timing.
  /// A batch whose window is invalid (not finite, StartTime >= EndTime,
  /// or OutputSamples == 1) is not integrated: every simulation fails
  /// with status Aborted and a Detail that names the rule.
  virtual BatchResult run(const BatchSpec &Spec) = 0;
};

/// The personality names, in the order of the evaluation's comparison
/// maps: cpu-lsoda, cpu-vode, gpu-coarse (cupSODA-like), gpu-fine
/// (LASSIE-like), and psg-engine, the fine+coarse engine.
std::vector<std::string> simulatorNames();

/// Succeeds when \p Name is one of simulatorNames(); the failure lists
/// the known names.
Status checkSimulatorName(const std::string &Name);

/// Creates one simulator per simulatorNames() entry, in that order.
std::vector<std::unique_ptr<Simulator>>
createAllSimulators(const CostModel &Model);

/// Creates one simulator by name; fails on unknown names with
/// checkSimulatorName's message. Each GPU personality owns a ThreadPool
/// of one host worker per hardware thread and runs each batch as one
/// parallelFor over it, the caller joining in; the CPU personalities run
/// serially on the caller.
ErrorOr<std::unique_ptr<Simulator>> createSimulator(const std::string &Name,
                                                    const CostModel &Model);

} // namespace psg

#endif // PSG_SIM_SIMULATOR_H
