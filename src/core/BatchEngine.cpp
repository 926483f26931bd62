//===- core/BatchEngine.cpp -----------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"

#include "support/Error.h"
#include "support/Logging.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>

using namespace psg;

namespace {

void accumulateModeled(ModeledTime &Into, const ModeledTime &From) {
  Into.ComputeSeconds += From.ComputeSeconds;
  Into.MemorySeconds += From.MemorySeconds;
  Into.LaunchSeconds += From.LaunchSeconds;
  Into.HostSeconds += From.HostSeconds;
}

/// The sink behind run()/runParameterizations: re-materializes every
/// streamed outcome into a caller-owned vector at its global index. The
/// stream delivers ascending contiguous sub-batches.
class MaterializingSink final : public OutcomeSink {
public:
  explicit MaterializingSink(std::vector<SimulationOutcome> &Into)
      : Into(Into) {}

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Outcomes) override {
    if (Into.size() < FirstIndex + Outcomes.size())
      Into.resize(FirstIndex + Outcomes.size());
    for (size_t I = 0; I < Outcomes.size(); ++I)
      Into[FirstIndex + I] = std::move(Outcomes[I]);
  }

private:
  std::vector<SimulationOutcome> &Into;
};

} // namespace

BatchEngine::BatchEngine(const CostModel &Model, EngineOptions Options)
    : Opts(std::move(Options)) {
  auto SimOrErr = createSimulator(Opts.SimulatorName, Model);
  if (!SimOrErr)
    fatalError(SimOrErr.message());
  Sim = std::move(*SimOrErr);
}

std::shared_ptr<const CompiledModel>
BatchEngine::compiled(const ReactionNetwork &Net) {
  const uint64_t Fingerprint = networkFingerprint(Net);
  if (!CachedModel || CachedFingerprint != Fingerprint) {
    CachedModel = compileModel(Net);
    CachedFingerprint = Fingerprint;
  }
  return CachedModel;
}

StreamReport BatchEngine::stream(const ParameterSpace &Space,
                                 PointGenerator &Gen, OutcomeSink &Sink) {
  std::vector<std::vector<double>> Chunk;
  ParameterizationSource Source =
      [&](size_t MaxCount, std::vector<Parameterization> &Out) -> size_t {
    Chunk.clear();
    const size_t Count = Gen.next(MaxCount, Chunk);
    for (const std::vector<double> &Point : Chunk)
      Out.push_back(Space.applyPoint(Point));
    return Count;
  };
  return streamParameterizations(Space.network(), Source, Sink);
}

StreamReport
BatchEngine::streamParameterizations(const ReactionNetwork &Net,
                                     const ParameterizationSource &Source,
                                     OutcomeSink &Sink) {
  TraceSpan RunSpan("engine.run", "engine");
  MetricsRegistry &M = metrics();
  Counter &SubBatchCount = M.counter("psg.engine.sub_batches");
  Counter &Simulations = M.counter("psg.engine.simulations");
  Counter &FailureCount = M.counter("psg.engine.failures");
  Histogram &PrepareSeconds = M.histogram("psg.engine.sub_batch.prepare_s");
  Histogram &DispatchSeconds = M.histogram("psg.engine.sub_batch.dispatch_s");
  Histogram &SinkSeconds = M.histogram("psg.engine.sub_batch.sink_s");
  Histogram &SubBatchSims = M.histogram("psg.engine.sub_batch.simulations");
  Gauge &ModeledSimSeconds = M.gauge("psg.engine.modeled_simulation_s");
  Gauge &ModeledIntSeconds = M.gauge("psg.engine.modeled_integration_s");
  Gauge &PeakResident = M.gauge("psg.engine.peak_resident_outcomes");

  StreamReport Report;

  // One compile per distinct network: every sub-batch below dispatches
  // against this shared compilation.
  std::shared_ptr<const CompiledModel> Compiled = compiled(Net);

  const uint64_t SubBatch = Opts.SubBatchSize ? Opts.SubBatchSize : 512;

  size_t First = 0; // Run index of the next sub-batch's first simulation.
  for (;;) {
    // Prepare phase: pull the next chunk and assemble its spec; stop
    // when the source is exhausted.
    BatchSpec Spec;
    {
      TraceSpan GenerateSpan("engine.stream.generate", "engine");
      WallTimer PrepareTimer;
      std::vector<Parameterization> Params;
      Params.reserve(SubBatch);
      const size_t Count = Source(SubBatch, Params);
      if (Count == 0)
        break;
      Spec.Model = &Net;
      Spec.Compiled = Compiled;
      Spec.Batch = Count;
      Spec.StartTime = Opts.StartTime;
      Spec.EndTime = Opts.EndTime;
      Spec.OutputSamples = Opts.OutputSamples;
      Spec.Options = Opts.Solver;
      Spec.RateConstantSets.reserve(Count);
      Spec.InitialStates.reserve(Count);
      for (Parameterization &Param : Params) {
        Spec.RateConstantSets.push_back(std::move(Param.RateConstants));
        Spec.InitialStates.push_back(std::move(Param.InitialState));
      }
      PrepareSeconds.record(PrepareTimer.seconds());
    }
    const uint64_t Count = Spec.Batch;
    Report.PeakResidentOutcomes =
        std::max<size_t>(Report.PeakResidentOutcomes, Count);

    // Dispatch phase: run the sub-batch through the simulator.
    BatchResult Result;
    {
      TraceSpan SubBatchSpan("engine.sub_batch", "engine");
      WallTimer DispatchTimer;
      Result = Sim->run(Spec);
      DispatchSeconds.record(DispatchTimer.seconds());
      SubBatchSpan.setModeledSeconds(Result.SimulationTime.total());
    }
    SubBatchCount.add();
    Simulations.add(Count);
    FailureCount.add(Result.Failures);
    SubBatchSims.record(static_cast<double>(Count));

    logMessage(LogLevel::Info,
               "engine sub-batch %llu: %llu sims, %zu failures, "
               "modeled %.3gs",
               (unsigned long long)(Report.SubBatches + 1),
               (unsigned long long)Count, Result.Failures,
               Result.SimulationTime.total());

    // Reduce phase: hand the outcomes to the sink; their storage is
    // released at the end of this iteration, before the next pull.
    {
      TraceSpan SinkSpan("engine.stream.sink", "engine");
      WallTimer SinkTimer;
      Sink.consumeSubBatch(First, Result.Outcomes);
      SinkSeconds.record(SinkTimer.seconds());
    }

    Report.TotalStats.merge(Result.TotalStats);
    Report.Simulations += Count;
    Report.Failures += Result.Failures;
    Report.HostWallSeconds += Result.HostWallSeconds;
    ++Report.SubBatches;
    accumulateModeled(Report.IntegrationTime, Result.IntegrationTime);
    accumulateModeled(Report.SimulationTime, Result.SimulationTime);
    First += Count;
  }

  ModeledSimSeconds.add(Report.SimulationTime.total());
  ModeledIntSeconds.add(Report.IntegrationTime.total());
  PeakResident.set(static_cast<double>(Report.PeakResidentOutcomes));
  RunSpan.setModeledSeconds(Report.SimulationTime.total());
  Report.Metrics = M.snapshot();
  return Report;
}

EngineReport
BatchEngine::run(const ParameterSpace &Space,
                 const std::vector<std::vector<double>> &Points) {
  std::unique_ptr<PointGenerator> Gen = makeMaterializedGenerator(Points);
  std::vector<SimulationOutcome> Outcomes;
  Outcomes.reserve(Points.size());
  MaterializingSink Sink(Outcomes);
  return {stream(Space, *Gen, Sink), std::move(Outcomes)};
}

EngineReport
BatchEngine::runParameterizations(const ReactionNetwork &Net,
                                  std::vector<Parameterization> Params) {
  size_t Next = 0;
  ParameterizationSource Source =
      [&](size_t MaxCount, std::vector<Parameterization> &Out) -> size_t {
    const size_t Count = std::min(MaxCount, Params.size() - Next);
    for (size_t I = 0; I < Count; ++I)
      Out.push_back(std::move(Params[Next + I]));
    Next += Count;
    return Count;
  };
  std::vector<SimulationOutcome> Outcomes;
  Outcomes.reserve(Params.size());
  MaterializingSink Sink(Outcomes);
  return {streamParameterizations(Net, Source, Sink), std::move(Outcomes)};
}
