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
#include "vgpu/VirtualDevice.h"

namespace psg {

/// Serial CPU baseline wrapping one registry solver ("lsoda" / "vode").
class CpuSolverSimulator : public Simulator {
public:
  CpuSolverSimulator(std::string SolverName, std::string DisplayName,
                     CostModel Model);

  std::string name() const override { return DisplayName; }
  Backend backend() const override { return Backend::CpuSerial; }
  BatchResult run(const BatchSpec &Spec) override;

private:
  std::string SolverName;
  std::string DisplayName;
  CostModel Model;
  SimWorkerPool Workers; ///< Slot 0: the serial loop's reusable state.
};

/// cupSODA-like: one virtual GPU thread per simulation, LSODA numerics.
class CoarseGpuSimulator : public Simulator {
public:
  explicit CoarseGpuSimulator(CostModel Model, unsigned HostWorkers = 0);

  std::string name() const override { return "gpu-coarse"; }
  Backend backend() const override { return Backend::GpuCoarse; }
  BatchResult run(const BatchSpec &Spec) override;

private:
  CostModel Model;
  VirtualDevice Device;
  SimWorkerPool Workers; ///< One reusable slot per host worker.
};

/// LASSIE-like: simulations in sequence, each fine-grained; RKF45 with a
/// BDF fallback on stiffness.
class FineGpuSimulator : public Simulator {
public:
  explicit FineGpuSimulator(CostModel Model, unsigned HostWorkers = 0);

  std::string name() const override { return "gpu-fine"; }
  Backend backend() const override { return Backend::GpuFine; }
  BatchResult run(const BatchSpec &Spec) override;

private:
  CostModel Model;
  VirtualDevice Device;
  SimWorkerPool Workers; ///< One reusable slot per host worker.
};

/// The paper's engine: fine+coarse with the five-phase pipeline
/// (P1 compile, P2 eigenvalue routing, P3 DOPRI5, P4 RADAU5 including
/// re-dispatch of failed explicit runs, P5 collection).
class FineCoarseSimulator : public Simulator {
public:
  explicit FineCoarseSimulator(CostModel Model, unsigned HostWorkers = 0);

  std::string name() const override { return "psg-engine"; }
  Backend backend() const override { return Backend::GpuFineCoarse; }
  BatchResult run(const BatchSpec &Spec) override;

  /// Default spectral-radius threshold of the P2 routing heuristic (the
  /// paper's "dominant eigenvalue lower than 500 -> DOPRI5").
  static constexpr double DefaultStiffnessThreshold = 500.0;

  /// Spectral-radius threshold of the P2 routing heuristic.
  double StiffnessThreshold = DefaultStiffnessThreshold;

  /// Force a single method for the routing ablation (A1): "auto",
  /// "dopri5", or "radau5".
  std::string ForcedMethod = "auto";

private:
  CostModel Model;
  VirtualDevice Device;
  SimWorkerPool Workers; ///< One reusable slot per host worker.
};

} // namespace psg

#endif // PSG_SIM_SIMULATORS_H
