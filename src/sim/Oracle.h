//===- sim/Oracle.h - Batch-result comparison oracles -----------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Comparison oracles over batch-simulation results. The bit-exact
/// comparison is the contract behind the warm-dispatch paths: pooled
/// solvers, rebound per-worker views, and cached compilations must not
/// perturb a single bit of any outcome relative to freshly constructed
/// state. Used by the dispatch regression tests and the psg::check
/// warm-vs-cold invariance property. The outcome digest condenses the
/// same bits into one number, so tests can pin them as constants.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SIM_ORACLE_H
#define PSG_SIM_ORACLE_H

#include "sim/Simulator.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace psg {

/// Compares two simulation outcomes bit-for-bit: solver identity, status,
/// final time, last step size, every operation counter, and every
/// trajectory sample. Returns the first difference as a failure Status.
Status compareOutcomesBitExact(const SimulationOutcome &A,
                               const SimulationOutcome &B);

/// Compares two batch results bit-for-bit (outcome count, failure count,
/// then every outcome via compareOutcomesBitExact). Modeled timings are
/// intentionally excluded: they depend on host wall time.
Status compareBatchesBitExact(const BatchResult &A, const BatchResult &B);

/// The digest of no outcomes: the FNV-1a 64 offset basis.
constexpr uint64_t EmptyOutcomeDigest = 0xcbf29ce484222325ull;

/// FNV-1a 64 over the bits compareOutcomesBitExact compares, outcome by
/// outcome: the solver name, the status, the IEEE bits of the final time
/// and the last step size, the ten IntegrationStats counts, the
/// trajectory's shape and every sample's time and values. Each field is
/// hashed as little-endian bytes, so the digest does not depend on the
/// host's byte order. Hashing continues from \p Digest, so sub-batches
/// fold in as they stream: outcomeDigest(B, outcomeDigest(A)) is the
/// digest of A followed by B.
uint64_t outcomeDigest(const std::vector<SimulationOutcome> &Outcomes,
                       uint64_t Digest = EmptyOutcomeDigest);

} // namespace psg

#endif // PSG_SIM_ORACLE_H
