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
#include <optional>

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

/// Copies the aggregate (non-outcome) fields of a stream report into a
/// materializing report.
void fillFromStream(EngineReport &Report, StreamReport &&Streamed) {
  Report.TotalStats = Streamed.TotalStats;
  Report.IntegrationTime = Streamed.IntegrationTime;
  Report.SimulationTime = Streamed.SimulationTime;
  Report.HostWallSeconds = Streamed.HostWallSeconds;
  Report.Failures = Streamed.Failures;
  Report.SubBatches = Streamed.SubBatches;
  Report.Metrics = std::move(Streamed.Metrics);
}

} // namespace

BatchEngine::BatchEngine(const CostModel &Model, EngineOptions Options)
    : Opts(std::move(Options)), Model(Model) {
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
  Gauge &PipelineOverlap = M.gauge("psg.engine.pipeline.overlap_ratio");

  StreamReport Report;

  // One compile per distinct network: every sub-batch below dispatches
  // against this shared compilation.
  std::shared_ptr<const CompiledModel> Compiled = compiled(Net);

  const uint64_t SubBatch = Opts.SubBatchSize ? Opts.SubBatchSize : 512;

  /// One prepared sub-batch: parameterizations assembled, not dispatched.
  struct PreparedBatch {
    BatchSpec Spec;
    size_t First = 0;
    double PrepareSeconds = 0.0; ///< Host wall time spent preparing it.
  };
  size_t NextIndex = 0;
  // Engine-resident simulations: the prepared parameterizations plus the
  // outcomes of the sub-batch currently integrating or being consumed.
  size_t Resident = 0;
  // Recycled outcome storage, threaded to the simulator through
  // Spec.OutcomeBuffer so the outer vector is allocated once per run.
  std::vector<SimulationOutcome> Recycled;

  // Pulls and prepares the next sub-batch; empty when the source is
  // exhausted.
  auto prepareNext = [&]() -> std::optional<PreparedBatch> {
    TraceSpan GenerateSpan("engine.stream.generate", "engine");
    WallTimer PrepareTimer;
    std::vector<Parameterization> Params;
    Params.reserve(SubBatch);
    const size_t Count = Source(SubBatch, Params);
    if (Count == 0)
      return std::nullopt;
    PreparedBatch P;
    P.First = NextIndex;
    P.Spec.Model = &Net;
    P.Spec.Compiled = Compiled;
    P.Spec.Batch = Count;
    P.Spec.StartTime = Opts.StartTime;
    P.Spec.EndTime = Opts.EndTime;
    P.Spec.OutputSamples = Opts.OutputSamples;
    P.Spec.Options = Opts.Solver;
    P.Spec.RateConstantSets.reserve(Count);
    P.Spec.InitialStates.reserve(Count);
    for (Parameterization &Param : Params) {
      P.Spec.RateConstantSets.push_back(std::move(Param.RateConstants));
      P.Spec.InitialStates.push_back(std::move(Param.InitialState));
    }
    NextIndex += Count;
    Resident += Count;
    Report.PeakResidentOutcomes =
        std::max(Report.PeakResidentOutcomes, Resident);
    P.PrepareSeconds = PrepareTimer.seconds();
    PrepareSeconds.record(P.PrepareSeconds);
    Report.PrepareWallSeconds += P.PrepareSeconds;
    return P;
  };

  // The first sub-batch has no device execution to hide beneath, so its
  // preparation is always exposed.
  std::optional<PreparedBatch> Next = prepareNext();

  while (Next) {
    PreparedBatch P = std::move(*Next);
    P.Spec.OutcomeBuffer = &Recycled;
    const uint64_t Count = P.Spec.Batch;

    // Dispatch phase: run the sub-batch through the simulator.
    BatchResult Result;
    {
      TraceSpan SubBatchSpan("engine.sub_batch", "engine");
      WallTimer DispatchTimer;
      Result = Sim->run(P.Spec);
      DispatchSeconds.record(DispatchTimer.seconds());
      SubBatchSpan.setModeledSeconds(Result.SimulationTime.total());
    }

    // Overlap phase: double-buffering prepares the following sub-batch
    // now; the cost model bounds how much of this host time a second
    // stream would have hidden beneath the sub-batch's device execution.
    Next = prepareNext();
    const double PreparedDuring = Next ? Next->PrepareSeconds : 0.0;
    SubBatchCount.add();
    Simulations.add(Count);
    FailureCount.add(Result.Failures);
    SubBatchSims.record(static_cast<double>(Count));
    Report.HiddenPrepareSeconds += Model.hiddenPrepareSeconds(
        PreparedDuring, Result.SimulationTime.total());

    logMessage(LogLevel::Info,
               "engine sub-batch %llu: %llu sims, %zu failures, "
               "modeled %.3gs",
               (unsigned long long)(Report.SubBatches + 1),
               (unsigned long long)Count, Result.Failures,
               Result.SimulationTime.total());

    // Reduce phase: hand the outcomes to the sink, then release the
    // trajectory storage (the outer vector is recycled into the next
    // sub-batch's outcome buffer).
    {
      TraceSpan SinkSpan("engine.stream.sink", "engine");
      WallTimer SinkTimer;
      Sink.consumeSubBatch(P.First, Result.Outcomes);
      SinkSeconds.record(SinkTimer.seconds());
    }
    Recycled = std::move(Result.Outcomes);
    Recycled.clear();
    assert(Resident >= Count && "resident accounting underflow");
    Resident -= Count;

    Report.TotalStats.merge(Result.TotalStats);
    Report.Simulations += Count;
    Report.Failures += Result.Failures;
    Report.HostWallSeconds += Result.HostWallSeconds;
    ++Report.SubBatches;
    accumulateModeled(Report.IntegrationTime, Result.IntegrationTime);
    accumulateModeled(Report.SimulationTime, Result.SimulationTime);
  }

  Report.OverlapRatio =
      Report.PrepareWallSeconds > 0.0
          ? Report.HiddenPrepareSeconds / Report.PrepareWallSeconds
          : 0.0;
  ModeledSimSeconds.add(Report.SimulationTime.total());
  ModeledIntSeconds.add(Report.IntegrationTime.total());
  PeakResident.set(static_cast<double>(Report.PeakResidentOutcomes));
  PipelineOverlap.set(Report.OverlapRatio);
  RunSpan.setModeledSeconds(Report.SimulationTime.total());
  Report.Metrics = M.snapshot();
  return Report;
}

EngineReport
BatchEngine::run(const ParameterSpace &Space,
                 const std::vector<std::vector<double>> &Points) {
  std::unique_ptr<PointGenerator> Gen = makeMaterializedGenerator(Points);
  EngineReport Report;
  Report.Outcomes.reserve(Points.size());
  MaterializingSink Sink(Report.Outcomes);
  fillFromStream(Report, stream(Space, *Gen, Sink));
  return Report;
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
  EngineReport Report;
  Report.Outcomes.reserve(Params.size());
  MaterializingSink Sink(Report.Outcomes);
  fillFromStream(Report, streamParameterizations(Net, Source, Sink));
  return Report;
}
