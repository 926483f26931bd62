//===- sched/DeliveryLedger.cpp - Exactly-once outcome delivery -----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "sched/DeliveryLedger.h"

#include <cassert>

using namespace psg;

DeliveryLedger::Acceptance
DeliveryLedger::accept(size_t First, std::vector<SimulationOutcome> &&Outcomes,
                       OutcomeSink &Sink) {
  Acceptance A;
  if (!Accepted.insert(First).second) {
    A.Duplicate = true;
    return A;
  }
  // Shards are cut once, in emission order, from a contiguous stream:
  // a newly accepted shard can never start inside already-delivered
  // territory. (A same-shard retry is caught by the dedup set above.)
  assert(First >= NextDeliver &&
         "shard overlaps already-delivered index range");

  PendingSims += Outcomes.size();
  const bool Inserted = Pending.emplace(First, std::move(Outcomes)).second;
  assert(Inserted && "pending map already held this shard");
  (void)Inserted;
  while (!Pending.empty() && Pending.begin()->first == NextDeliver) {
    std::vector<SimulationOutcome> &Batch = Pending.begin()->second;
    const size_t Count = Batch.size();
    Sink.consumeSubBatch(NextDeliver, Batch);
    Pending.erase(Pending.begin());
    NextDeliver += Count;
    Delivered += Count;
    PendingSims -= Count;
    A.FlushedSimulations += Count;
    // The flush cursor must land exactly on the next buffered batch or
    // ahead of it — landing *inside* one means two shards overlapped.
    assert((Pending.empty() || Pending.begin()->first >= NextDeliver) &&
           "ordered flush cursor landed inside a buffered shard");
  }
  return A;
}
