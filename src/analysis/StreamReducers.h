//===- analysis/StreamReducers.h - Streaming outcome sinks ------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reducer side of the streaming pipeline: OutcomeSink adapters the
/// analyses plug into BatchEngine::stream so a sweep of any size keeps
/// only its scalar products — one reduced double per simulation — while
/// trajectories die with their sub-batch.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_ANALYSIS_STREAMREDUCERS_H
#define PSG_ANALYSIS_STREAMREDUCERS_H

#include "analysis/Psa.h"

namespace psg {

/// Reduces every streamed outcome to a scalar with a TrajectoryReducer,
/// appending to a caller-owned vector in stream order.
class ReducingSink : public OutcomeSink {
public:
  ReducingSink(TrajectoryReducer Reduce, std::vector<double> &Into)
      : Reduce(std::move(Reduce)), Into(Into) {}

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Outcomes) override;

  /// Wall time spent inside the reducer, summed over sub-batches.
  double reduceSeconds() const { return ReduceWallSeconds; }

private:
  TrajectoryReducer Reduce;
  std::vector<double> &Into;
  double ReduceWallSeconds = 0.0;
};

/// Invokes a callback for every streamed outcome with its global
/// simulation index; the outcome is only valid during the call.
class ForEachOutcomeSink : public OutcomeSink {
public:
  using Callback =
      std::function<void(size_t Index, const SimulationOutcome &Outcome)>;

  explicit ForEachOutcomeSink(Callback Fn) : Fn(std::move(Fn)) {}

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Outcomes) override;

private:
  Callback Fn;
};

} // namespace psg

#endif // PSG_ANALYSIS_STREAMREDUCERS_H
