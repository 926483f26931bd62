//===- sim/Simulators.h - Simulator personalities ---------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five personalities of the evaluation:
///
/// | name            | backend          | numerical method            |
/// |-----------------|------------------|-----------------------------|
/// | cpu-lsoda       | CpuSerial        | Adams/BDF auto-switch       |
/// | cpu-vode        | CpuSerial        | Adams-or-BDF start heuristic|
/// | gpu-coarse      | GpuCoarse        | LSODA per GPU thread        |
/// | gpu-fine        | GpuFine          | RKF45 with BDF fallback     |
/// | psg-engine      | GpuFineCoarse    | DOPRI5/RADAU5 with the P2   |
/// |                 |                  | eigenvalue routing heuristic|
///
/// All personalities compute identical (tolerance-controlled) numerics on
/// the host; they differ in the architecture their timing is modeled on
/// and in the solver family, exactly mirroring the tools they stand for.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SIM_SIMULATORS_H
#define PSG_SIM_SIMULATORS_H

#include "sim/SimWorkspace.h"
#include "sim/Simulator.h"
#include "vgpu/ThreadPool.h"

#include <optional>

namespace psg {

/// The batch loop the five personalities share. run() checks the window,
/// sizes the outcome storage, resolves the compiled model once, runs
/// every simulation through simulate() and prices the batch on
/// backend(). The CPU personalities loop serially on the caller; the GPU
/// personalities make one ThreadPool::parallelFor call per batch.
class BatchSimulator : public Simulator {
public:
  BatchResult run(const BatchSpec &Spec) final;

protected:
  /// A null \p KernelName runs every batch serially on the caller. Any
  /// other name gives the simulator a host pool of one worker per
  /// hardware thread (the caller joins in) and traces each batch as the
  /// span `vgpu.kernel.<KernelName>`.
  BatchSimulator(CostModel Model, const char *KernelName);

  /// Runs simulation \p Index of \p Spec on \p Sys, the view \p Slot
  /// holds of the batch's model, with \p Slot's solvers. Called
  /// concurrently for different indices, each with its own slot.
  virtual SimulationOutcome simulate(const BatchSpec &Spec, size_t Index,
                                     CompiledOdeSystem &Sys,
                                     SimWorkerSlot &Slot) = 0;

private:
  CostModel Model;
  std::string KernelSpan;         ///< Empty for the serial personalities.
  std::optional<ThreadPool> Pool; ///< Absent for the serial personalities.
  SimWorkerPool Workers;          ///< One reusable slot per participant.
};

/// Serial CPU baseline wrapping one registry solver ("lsoda" / "vode").
class CpuSolverSimulator : public BatchSimulator {
public:
  CpuSolverSimulator(std::string SolverName, std::string DisplayName,
                     CostModel Model);

  std::string name() const override { return DisplayName; }
  Backend backend() const override { return Backend::CpuSerial; }

protected:
  SimulationOutcome simulate(const BatchSpec &Spec, size_t Index,
                             CompiledOdeSystem &Sys,
                             SimWorkerSlot &Slot) override;

private:
  std::string SolverName;
  std::string DisplayName;
};

/// cupSODA-like: one GPU thread per simulation, LSODA numerics.
class CoarseGpuSimulator : public BatchSimulator {
public:
  explicit CoarseGpuSimulator(CostModel Model);

  std::string name() const override { return "gpu-coarse"; }
  Backend backend() const override { return Backend::GpuCoarse; }

protected:
  SimulationOutcome simulate(const BatchSpec &Spec, size_t Index,
                             CompiledOdeSystem &Sys,
                             SimWorkerSlot &Slot) override;
};

/// LASSIE-like: each simulation fine-grained on the modeled device;
/// RKF45 with a BDF fallback on stiffness.
class FineGpuSimulator : public BatchSimulator {
public:
  explicit FineGpuSimulator(CostModel Model);

  std::string name() const override { return "gpu-fine"; }
  Backend backend() const override { return Backend::GpuFine; }

protected:
  SimulationOutcome simulate(const BatchSpec &Spec, size_t Index,
                             CompiledOdeSystem &Sys,
                             SimWorkerSlot &Slot) override;
};

/// The paper's engine: fine+coarse with the five-phase pipeline
/// (P1 compile, P2 eigenvalue routing, P3 DOPRI5, P4 RADAU5 including
/// re-dispatch of failed explicit runs, P5 collection).
class FineCoarseSimulator : public BatchSimulator {
public:
  explicit FineCoarseSimulator(CostModel Model);

  std::string name() const override { return "psg-engine"; }
  Backend backend() const override { return Backend::GpuFineCoarse; }

  /// Default spectral-radius threshold of the P2 routing heuristic (the
  /// paper's "dominant eigenvalue lower than 500 -> DOPRI5").
  static constexpr double DefaultStiffnessThreshold = 500.0;

  /// Spectral-radius threshold of the P2 routing heuristic.
  double StiffnessThreshold = DefaultStiffnessThreshold;

  /// Force a single method for the routing ablation (A1): "auto",
  /// "dopri5", or "radau5".
  std::string ForcedMethod = "auto";

protected:
  SimulationOutcome simulate(const BatchSpec &Spec, size_t Index,
                             CompiledOdeSystem &Sys,
                             SimWorkerSlot &Slot) override;
};

} // namespace psg

#endif // PSG_SIM_SIMULATORS_H
