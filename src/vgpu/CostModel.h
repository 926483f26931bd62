//===- vgpu/CostModel.h - Modeled execution time ----------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns exact operation counts (measured by really running the
/// integrations) into modeled wall-clock time on a target architecture,
/// for each of the four execution strategies of the evaluation:
///
/// - CpuSerial:      the LSODA/VODE baseline, one simulation at a time;
/// - GpuCoarse:      cupSODA-style, one GPU thread per simulation;
/// - GpuFine:        LASSIE-style, one simulation at a time with its ODE
///                   work spread across threads;
/// - GpuFineCoarse:  the paper's contribution, both levels at once via
///                   dynamic parallelism.
///
/// The model is analytic and intentionally simple: a roofline of compute
/// and memory time plus explicit launch/synchronization overheads, with
/// warp divergence, coalescing quality, cupSODA's shared/constant-memory
/// bonus for small models, and the dynamic-parallelism saturation beyond
/// ~2048 concurrent simulations. Every knob is a documented field of
/// CostModel::Tunables; calibration notes live in EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_VGPU_COSTMODEL_H
#define PSG_VGPU_COSTMODEL_H

#include "vgpu/DeviceSpec.h"

#include <cstdint>
#include <utility>

namespace psg {

/// Execution strategy being modeled.
enum class Backend {
  CpuSerial,
  GpuCoarse,
  GpuFine,
  GpuFineCoarse
};

/// Stable display name ("cpu-serial", "gpu-coarse", ...).
const char *backendName(Backend B);

/// Average per-simulation work of a batch, measured from real runs.
struct SimulationWork {
  size_t NumSpecies = 0;   ///< N: ODEs (the fine-grained width).
  size_t NumReactions = 0; ///< M: terms per ODE scale with M/N.
  double TotalFlops = 0;   ///< All arithmetic of one integration.
  double MemTrafficBytes = 0; ///< Global-memory traffic of one run.
  double StateBytes = 0;      ///< Resident per-simulation working set.
  double ConstantBytes = 0;   ///< Immutable model encoding (A, B, K).
  uint64_t Steps = 0;         ///< Serial step chain (accepted+rejected).
  uint64_t KernelPhasesPerStep = 6; ///< Fine-grained launches per step.
  uint64_t OutputSamples = 0;       ///< Trajectory samples written back.
};

/// Modeled wall time, split by bottleneck.
struct ModeledTime {
  double ComputeSeconds = 0;
  double MemorySeconds = 0;
  double LaunchSeconds = 0;
  double HostSeconds = 0; ///< Setup, transfers, per-simulation dispatch.

  /// Roofline combination: compute and memory overlap, overheads add.
  double total() const {
    const double Roof =
        ComputeSeconds > MemorySeconds ? ComputeSeconds : MemorySeconds;
    return Roof + LaunchSeconds + HostSeconds;
  }
};

/// Analytic timing model over a GPU spec and a CPU spec.
class CostModel {
public:
  /// Calibration constants (see EXPERIMENTS.md for the fitting notes).
  struct Tunables {
    /// Warp-divergence inflation for independent per-thread integrations.
    double CoarseDivergence = 1.35;
    /// Divergence when per-step synchronization re-converges warps.
    double FineCoarseDivergence = 1.15;
    /// Fraction of peak bandwidth reached by per-thread strided state.
    double CoarseCoalescing = 0.25;
    /// Fraction of peak bandwidth for species-contiguous fine access.
    double FineCoalescing = 0.6;
    /// Shared/constant-memory speedup for models that fit (cupSODA).
    double SharedMemoryBonus = 0.12;
    /// Per-simulation dispatch overhead of the CPU driver (the SciPy
    /// wrapper loop of the baseline).
    double CpuPerSimOverheadSec = 8e-4;
    /// Host-side batch setup (phase P1 encoding) per launch.
    double BatchSetupSec = 4e-3;
    /// PCIe transfer bandwidth for result write-back.
    double PcieBandwidthGBs = 10.0;
    /// Concurrent child grids where DP launch cost starts climbing.
    uint64_t DpSoftLimit = 512;
    /// Concurrent child grids where DP launch cost climbs steeply.
    uint64_t DpHardLimit = 2048;
    /// DP penalty slope between the soft and hard limits.
    double DpSoftSlope = 0.3;
    /// Quadratic DP penalty coefficient beyond the hard limit.
    double DpHardCoeff = 4.0;
    /// Concurrent child-launch slots of the device's launch queues.
    double DpLaunchSlots = 2048.0;
    /// Register pressure: fraction of cores usable by the fine kernels.
    double FineOccupancy = 0.75;
    /// Future-work variant (the paper line's planned improvement): let
    /// the fine+coarse kernels keep small models in constant/shared
    /// memory like the coarse-grained simulator does. Off by default to
    /// match the published system (which relies on global memory only).
    bool FineCoarseFastMemory = false;
  };

  CostModel(DeviceSpec Gpu, DeviceSpec Cpu)
      : Gpu(std::move(Gpu)), Cpu(std::move(Cpu)) {}
  CostModel(DeviceSpec Gpu, DeviceSpec Cpu, Tunables Knobs)
      : Gpu(std::move(Gpu)), Cpu(std::move(Cpu)), Knobs(Knobs) {}

  /// Default model: Titan X GPU + i7-2600 CPU core.
  static CostModel paperSetup() {
    return CostModel(DeviceSpec::titanX(), DeviceSpec::cpuCore());
  }

  /// Models the *integration* time of \p Batch simulations whose average
  /// per-simulation work is \p Work.
  ModeledTime integrationTime(Backend B, const SimulationWork &Work,
                              uint64_t Batch) const;

  /// Models the full *simulation* time: integration plus model setup and
  /// result write-back (the "I/O" the papers distinguish).
  ModeledTime simulationTime(Backend B, const SimulationWork &Work,
                             uint64_t Batch) const;

  /// The dynamic-parallelism saturation factor at \p ConcurrentChildren.
  double dpPenalty(uint64_t ConcurrentChildren) const;

private:
  DeviceSpec Gpu;
  DeviceSpec Cpu;
  Tunables Knobs;

  ModeledTime cpuSerial(const SimulationWork &Work, uint64_t Batch) const;
  ModeledTime gpuCoarse(const SimulationWork &Work, uint64_t Batch) const;
  ModeledTime gpuFine(const SimulationWork &Work, uint64_t Batch) const;
  ModeledTime gpuFineCoarse(const SimulationWork &Work,
                            uint64_t Batch) const;
};

} // namespace psg

#endif // PSG_VGPU_COSTMODEL_H
