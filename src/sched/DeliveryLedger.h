//===- sched/DeliveryLedger.h - Exactly-once outcome delivery ---*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exactly-once, ordered delivery stage of the ShardedExecutor.
/// Shards arrive as (First, Outcomes) batches cut from a contiguous
/// index stream; the ledger deduplicates repeated deliveries of the same
/// shard and buffers out-of-order completions until the index gap
/// closes, so the sink always observes ascending contiguous sub-batches.
///
/// The contiguity invariant — every flush starts exactly at the next
/// undelivered index, and accepted shards never overlap — is asserted
/// here, once (tests/sched_test.cpp drives it).
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SCHED_DELIVERYLEDGER_H
#define PSG_SCHED_DELIVERYLEDGER_H

#include "core/BatchEngine.h"
#include "sim/Simulator.h"

#include <cstddef>
#include <map>
#include <set>
#include <vector>

namespace psg {

/// Serializes shard completions into exactly-once sink deliveries.
/// Not thread-safe: callers hold their own lock (the executor's state
/// mutex).
class DeliveryLedger {
public:
  struct Acceptance {
    bool Duplicate = false;       ///< Shard was already accepted; dropped.
    size_t FlushedSimulations = 0; ///< Sims handed to the sink this call.
  };

  /// Accepts one completed shard starting at global index \p First.
  /// First-accept wins: a duplicate (same First) is dropped whole, no
  /// matter which attempt produced it. The batch may be buffered; the
  /// return value counts only what was flushed to the sink *now*
  /// (possibly including earlier buffered batches whose gap this one
  /// closed).
  Acceptance accept(size_t First, std::vector<SimulationOutcome> &&Outcomes,
                    OutcomeSink &Sink);

  /// Total simulations delivered to the sink so far.
  size_t deliveredSimulations() const { return Delivered; }

  /// Next index a flush must start at.
  size_t nextToDeliver() const { return NextDeliver; }

  /// Batches accepted but still buffered.
  size_t pendingBatches() const { return Pending.size(); }

  /// Simulations accepted but still buffered.
  size_t pendingSimulations() const { return PendingSims; }

private:
  size_t NextDeliver = 0;
  size_t Delivered = 0;
  size_t PendingSims = 0;
  std::map<size_t, std::vector<SimulationOutcome>> Pending;
  std::set<size_t> Accepted; ///< First indices ever accepted (dedup key).
};

} // namespace psg

#endif // PSG_SCHED_DELIVERYLEDGER_H
