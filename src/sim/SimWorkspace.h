//===- sim/SimWorkspace.h - Per-worker batch dispatch state -----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reusable per-worker simulation state for the batch personalities. Each
/// host worker that executes kernel bodies owns one SimWorkerSlot: a
/// parameterizable CompiledOdeSystem view over the batch's shared
/// CompiledModel plus pooled solver instances keyed by registry name.
/// Slots persist across simulations and across run() calls, so
/// steady-state dispatch performs no model compilation, no registry
/// lookup, and no solver allocation.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SIM_SIMWORKSPACE_H
#define PSG_SIM_SIMWORKSPACE_H

#include "ode/OdeSolver.h"
#include "rbm/MassAction.h"

#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace psg {

/// One worker's reusable dispatch state. Not thread-safe; each worker
/// must use its own slot.
class SimWorkerSlot {
public:
  /// Returns the view bound to \p Model, constructing or rebinding it as
  /// needed. Steady state (same shared model as the previous call) is a
  /// pointer comparison.
  CompiledOdeSystem &bind(const std::shared_ptr<const CompiledModel> &Model);

  /// Returns this slot's instance of the registry solver \p Name,
  /// creating it on first use. The name must be a registry built-in.
  OdeSolver &solver(const std::string &Name);

private:
  std::optional<CompiledOdeSystem> Sys;
  std::map<std::string, std::unique_ptr<OdeSolver>> Solvers;
};

/// A pool of worker slots indexed by host worker index (see
/// KernelContext::workerIndex / VirtualDevice::hostParallelism). Slots
/// are heap-allocated individually so neighbouring workers never share a
/// cache line through the pool.
class SimWorkerPool {
public:
  /// Grows the pool to at least \p Workers slots. Not thread-safe: call
  /// before launching kernels whose bodies index the pool.
  void ensure(size_t Workers);

  /// The slot for \p Worker; ensure() must have covered the index.
  SimWorkerSlot &operator[](size_t Worker) {
    assert(Worker < Slots.size() && "worker slot not provisioned");
    return *Slots[Worker];
  }

  size_t size() const { return Slots.size(); }

private:
  std::vector<std::unique_ptr<SimWorkerSlot>> Slots;
};

} // namespace psg

#endif // PSG_SIM_SIMWORKSPACE_H
