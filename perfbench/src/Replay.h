//===- perfbench/src/Replay.h - Per-layer replay ----------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the layers below the solver from outside the program: a sample
/// of a workload's parameterizations is re-integrated through
/// createSolver() on an OdeSystem decorator that times every rhs() and
/// analyticJacobian() call of the compiled model, and RealLu/ComplexLu
/// factor/solve and powerIterationSpectralRadius are timed on Newton and
/// Jacobian matrices taken from those same integrations. The engine's
/// routing (probe, DOPRI5, RADAU5 re-run on a failed DOPRI5) is replayed
/// for psg-engine workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "core/ParameterSpace.h"
#include "ode/SolverOptions.h"
#include "rbm/MassAction.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What to replay: the engine's path over a sample of parameterizations.
struct ReplayInput {
  std::shared_ptr<const psg::CompiledModel> Model;
  std::vector<psg::Parameterization> Params;
  /// "psg-engine" (probe + DOPRI5 + RADAU5 re-run) or a solver name.
  std::string Path;
  double StartTime = 0.0;
  double EndTime = 1.0;
  size_t OutputSamples = 0;
  psg::SolverOptions Options;
  double StiffnessThreshold = 500.0;
  /// Threads replaying at once: the engine's concurrency, so per-call
  /// times are taken under the load the workload runs with.
  unsigned Threads = 1;
};

/// Replayed totals of one solver.
struct SolverReplay {
  uint64_t Steps = 0;
  uint64_t JacCalls = 0;   ///< Newton Jacobians, into the solver's matrix.
  uint64_t ProbeCalls = 0; ///< Its own stiffness probes: a Jacobian into a
                           ///< fresh matrix, then a power iteration.
  uint64_t LuFactors = 0;
  uint64_t CluFactors = 0;
  uint64_t LuSolves = 0;
  double IntegrateSeconds = 0.0;
  double RhsSeconds = 0.0; ///< Inside this solver's integrations.
  double JacSeconds = 0.0; ///< Newton and probe Jacobians.
};

/// Timed calls of one operation.
struct CallTotals {
  uint64_t Calls = 0;
  double Seconds = 0.0;

  double perCall() const {
    return Calls ? Seconds / static_cast<double>(Calls) : 0.0;
  }
  void add(const CallTotals &O) {
    Calls += O.Calls;
    Seconds += O.Seconds;
  }
};

/// Replay totals; merge() accumulates replays run at different times.
struct ReplayResult {
  /// Jac: Jacobians into an existing matrix (Newton refreshes). ProbeJac:
  /// into a fresh one, as the engine's routing probe and LSODA's periodic
  /// stiffness probe form them. Probe: powerIterationSpectralRadius.
  CallTotals Rhs, Jac, ProbeJac, LuFactor, CluFactor, LuSolve, Probe;
  /// DOPRI5 attempts that ended in StiffnessDetected.
  CallTotals RerouteAttempt;
  std::map<std::string, SolverReplay> Solvers;

  void merge(const ReplayResult &Other);

  /// Estimated LU seconds of the given factor/solve counts.
  double luSeconds(double Factors, double Clus, double Solves) const;
  /// Share of \p Solver's Jacobians that are its own stiffness probes.
  double probeShare(const std::string &Solver) const;
  /// Seconds of one stiffness probe: a fresh-matrix Jacobian plus a power
  /// iteration.
  double probeSeconds() const { return ProbeJac.perCall() + Probe.perCall(); }
  /// Solver seconds per attempted step outside rhs, Jacobians, LU and its
  /// own stiffness probes: step control, Newton bookkeeping, history,
  /// output sampling.
  double selfSecondsPerStep(const std::string &Solver) const;
};

class Replayer;

/// The replay, run in slices between traced analyses. Each of In.Threads
/// threads keeps one replayer, with its solvers and workspaces, across
/// slices.
class LayerReplay {
public:
  explicit LayerReplay(ReplayInput In);
  ~LayerReplay();
  LayerReplay(const LayerReplay &) = delete;
  LayerReplay &operator=(const LayerReplay &) = delete;

  /// Replays the next \p PerThread parameterizations of In.Params (in
  /// turn, wrapping around) on every thread at once.
  void runSlice(size_t PerThread);

  /// Totals over every slice so far.
  ReplayResult result() const;

private:
  ReplayInput In;
  std::vector<std::unique_ptr<Replayer>> Replayers;
  size_t Next = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
