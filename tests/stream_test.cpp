//===- tests/stream_test.cpp - Streaming pipeline tests -------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
// The streaming contract: stream() is bit-exact with the materializing
// run() for every simulator personality, the outcome bits do not depend
// on where the stream is cut into sub-batches, lazy generators emit
// bit-identical sequences to their materializing counterparts, and
// engine residency stays bounded by SubBatchSize (one sub-batch in
// flight) no matter how large the sweep is.
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"
#include "core/ParameterSpace.h"
#include "core/PointGenerator.h"
#include "sim/Oracle.h"

#include "rbm/CuratedModels.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <optional>

using namespace psg;

namespace {

ParameterAxis rateAxis(unsigned Reaction, double Lo, double Hi) {
  ParameterAxis Axis;
  Axis.Name = "k" + std::to_string(Reaction);
  Axis.Target = AxisTarget::RateConstant;
  Axis.Reactions = {Reaction};
  Axis.Lo = Lo;
  Axis.Hi = Hi;
  return Axis;
}

ParameterAxis initialAxis(const ReactionNetwork &Net, const char *Species,
                          double Lo, double Hi) {
  ParameterAxis Axis;
  Axis.Name = Species;
  Axis.Target = AxisTarget::InitialConcentration;
  Axis.SpeciesIndex = *Net.findSpecies(Species);
  Axis.Lo = Lo;
  Axis.Hi = Hi;
  return Axis;
}

/// Materializes every streamed outcome, checking sub-batches arrive in
/// order.
class CollectSink final : public OutcomeSink {
public:
  std::vector<SimulationOutcome> Outcomes;

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Batch) override {
    EXPECT_EQ(FirstIndex, Outcomes.size());
    for (SimulationOutcome &O : Batch)
      Outcomes.push_back(std::move(O));
  }
};

/// Counts streamed outcomes without retaining any.
class CountingSink final : public OutcomeSink {
public:
  size_t Count = 0;

  void consumeSubBatch(size_t,
                       std::vector<SimulationOutcome> &Batch) override {
    Count += Batch.size();
  }
};

/// Folds every streamed sub-batch into one running outcome digest,
/// checking sub-batches arrive in order.
class DigestSink final : public OutcomeSink {
public:
  uint64_t Digest = EmptyOutcomeDigest;
  size_t Count = 0;

  void consumeSubBatch(size_t FirstIndex,
                       std::vector<SimulationOutcome> &Batch) override {
    EXPECT_EQ(FirstIndex, Count);
    Count += Batch.size();
    Digest = outcomeDigest(Batch, Digest);
  }
};

/// Drains \p Gen through next() in chunks of \p Chunk.
std::vector<std::vector<double>> drain(PointGenerator &Gen, size_t Chunk) {
  std::vector<std::vector<double>> Points;
  while (Gen.next(Chunk, Points) > 0)
    ;
  return Points;
}

} // namespace

//===----------------------------------------------------------------------===//
// Generator equivalence: lazy emission must be bit-identical to the
// materializing samplers.
//===----------------------------------------------------------------------===//

TEST(PointGeneratorTest, GridMatchesGridSample) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 0.0, 1.0));
  Space.addAxis(initialAxis(Net, "X", 0.0, 10.0));
  const std::vector<std::vector<double>> Expected = Space.gridSample({3, 4});
  auto Gen = makeGridGenerator(Space, {3, 4});
  EXPECT_EQ(Gen->totalPoints(), 12u);
  // Chunk size 5 is deliberately misaligned with both axes.
  EXPECT_EQ(drain(*Gen, 5), Expected);
  EXPECT_EQ(drain(*makeGridGenerator(Space, {3, 4}), 1), Expected);
}

TEST(PointGeneratorTest, GridSinglePointUsesMidpoint) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 2.0, 4.0));
  auto Gen = makeGridGenerator(Space, {1});
  EXPECT_EQ(drain(*Gen, 8), Space.gridSample({1}));
}

TEST(PointGeneratorTest, SaltelliMatchesMaterializedAssembly) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "F", 0.0, 1.0));
  Space.addAxis(initialAxis(Net, "X", 2.0, 3.0));
  const size_t K = 2, N = 16;
  Rng Generator(5);
  std::vector<double> Shift(2 * K);
  for (double &S : Shift)
    S = Generator.uniform();

  // The reference design, assembled the way the pre-streaming Sobol
  // driver did: rotated Halton rows split into A and B, then the radial
  // AB_i and BA_i matrices.
  std::vector<std::vector<double>> A(N), B(N);
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> Row = haltonPoint(I + 1, 2 * K);
    for (size_t D = 0; D < 2 * K; ++D) {
      Row[D] += Shift[D];
      if (Row[D] >= 1.0)
        Row[D] -= 1.0;
    }
    A[I].assign(Row.begin(), Row.begin() + K);
    B[I].assign(Row.begin() + K, Row.end());
  }
  std::vector<std::vector<double>> Expected;
  for (const auto &Row : A)
    Expected.push_back(Space.fromUnitCube(Row));
  for (const auto &Row : B)
    Expected.push_back(Space.fromUnitCube(Row));
  for (size_t D = 0; D < K; ++D)
    for (size_t I = 0; I < N; ++I) {
      std::vector<double> Row = A[I];
      Row[D] = B[I][D];
      Expected.push_back(Space.fromUnitCube(Row));
    }
  for (size_t D = 0; D < K; ++D)
    for (size_t I = 0; I < N; ++I) {
      std::vector<double> Row = B[I];
      Row[D] = A[I][D];
      Expected.push_back(Space.fromUnitCube(Row));
    }

  auto Gen = makeSaltelliGenerator(Space, N, Shift, /*SecondOrder=*/true);
  EXPECT_EQ(Gen->totalPoints(), N * (2 * K + 2));
  EXPECT_EQ(drain(*Gen, 13), Expected);

  // First order drops the BA blocks but changes nothing else.
  auto FirstOrder =
      makeSaltelliGenerator(Space, N, Shift, /*SecondOrder=*/false);
  Expected.resize(N * (K + 2));
  EXPECT_EQ(drain(*FirstOrder, 13), Expected);
}

TEST(PointGeneratorTest, MaterializedRoundTrips) {
  const std::vector<std::vector<double>> Points = {{1.0}, {2.5}, {3.0}};
  auto Gen = makeMaterializedGenerator(Points);
  EXPECT_EQ(Gen->totalPoints(), 3u);
  EXPECT_EQ(drain(*Gen, 2), Points);
  std::vector<std::vector<double>> Empty;
  EXPECT_EQ(Gen->next(4, Empty), 0u);
}

//===----------------------------------------------------------------------===//
// Bit-exactness: stream() == run() for every personality.
//===----------------------------------------------------------------------===//

TEST(StreamEngineTest, StreamIsBitExactWithRunAcrossPersonalities) {
  ReactionNetwork Net = makeBrusselatorNetwork();
  ParameterSpace Space(Net);
  Space.addAxis(rateAxis(0, 0.5, 3.0));
  const size_t Points = 20;

  for (const char *Sim :
       {"psg-engine", "cpu-lsoda", "cpu-vode", "gpu-coarse", "gpu-fine"}) {
    EngineOptions Opts;
    Opts.SimulatorName = Sim;
    Opts.SubBatchSize = 8;
    Opts.EndTime = 2.0;
    Opts.OutputSamples = 3;

    BatchEngine Reference(CostModel::paperSetup(), Opts);
    const EngineReport Materialized =
        Reference.run(Space, Space.gridSample({Points}));
    ASSERT_EQ(Materialized.Outcomes.size(), Points) << Sim;

    BatchEngine Engine(CostModel::paperSetup(), Opts);
    auto Gen = makeGridGenerator(Space, {Points});
    CollectSink Sink;
    const StreamReport Report = Engine.stream(Space, *Gen, Sink);

    EXPECT_EQ(Report.Simulations, Points) << Sim;
    EXPECT_EQ(Report.SubBatches, 3u) << Sim; // 8 + 8 + 4.
    EXPECT_EQ(Report.Failures, Materialized.Failures) << Sim;
    EXPECT_LE(Report.PeakResidentOutcomes, Opts.SubBatchSize) << Sim;
    ASSERT_EQ(Sink.Outcomes.size(), Points) << Sim;
    for (size_t I = 0; I < Points; ++I) {
      Status S = compareOutcomesBitExact(Sink.Outcomes[I],
                                         Materialized.Outcomes[I]);
      EXPECT_TRUE(bool(S)) << Sim << " outcome " << I << ": "
                           << S.message();
    }
  }
}

TEST(StreamEngineTest, OutcomeBitsIgnoreSubBatchCuts) {
  // Where the stream is cut into sub-batches may not change an outcome
  // bit: the sweep's folded digest is the same for every cut. Robertson
  // probes non-stiff at t0 and turns stiff, so psg-engine reroutes it
  // from DOPRI5 to RADAU5 (P3 -> P4); cpu-vode fails it on the step
  // budget, which is pinned the same way.
  struct Sweep {
    const char *Model;
    ReactionNetwork Net;
    double Lo, Hi, EndTime;
  };
  const Sweep Sweeps[] = {
      {"brusselator", makeBrusselatorNetwork(), 0.5, 3.0, 2.0},
      {"robertson", makeRobertsonNetwork(), 0.02, 0.08, 10.0}};
  const size_t Points = 20;
  Counter &Reroutes = metrics().counter("psg.engine.stiffness_reroutes");
  uint64_t EngineReroutes = 0;

  for (const Sweep &S : Sweeps) {
    ParameterSpace Space(S.Net);
    Space.addAxis(rateAxis(0, S.Lo, S.Hi));
    for (const std::string &Sim : simulatorNames()) {
      std::optional<uint64_t> Expected;
      for (uint64_t SubBatch : {1u, 7u, 512u}) {
        EngineOptions Opts;
        Opts.SimulatorName = Sim;
        Opts.SubBatchSize = SubBatch;
        Opts.EndTime = S.EndTime;
        Opts.OutputSamples = 5;
        BatchEngine Engine(CostModel::paperSetup(), Opts);
        auto Gen = makeGridGenerator(Space, {Points});
        DigestSink Sink;
        const uint64_t ReroutesBefore = Reroutes.value();
        const StreamReport Report = Engine.stream(Space, *Gen, Sink);
        if (Sim == "psg-engine")
          EngineReroutes += Reroutes.value() - ReroutesBefore;

        const std::string Row = Sim + " on " + S.Model + ", sub-batch " +
                                std::to_string(SubBatch);
        EXPECT_EQ(Sink.Count, Points) << Row;
        EXPECT_EQ(Report.SubBatches, (Points + SubBatch - 1) / SubBatch)
            << Row;
        if (!Expected)
          Expected = Sink.Digest;
        EXPECT_EQ(Sink.Digest, *Expected) << Row;
      }
    }
  }
  EXPECT_GT(EngineReroutes, 0u);
}

TEST(StreamEngineTest, RunMatchesStreamAggregates) {
  // run() is a materializing sink over stream(): counts must line up.
  ReactionNetwork Net = makeDecayChainNetwork(3, 0.5);
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "S0", 0.5, 2.0));
  EngineOptions Opts;
  Opts.SubBatchSize = 8;
  Opts.EndTime = 1.0;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  const EngineReport Report = Engine.run(Space, Space.gridSample({20}));
  EXPECT_EQ(Report.Outcomes.size(), 20u);
  EXPECT_EQ(Report.SubBatches, 3u);
  EXPECT_GT(Report.SimulationTime.total(), 0.0);
}

//===----------------------------------------------------------------------===//
// Bounded residency on a large sweep.
//===----------------------------------------------------------------------===//

TEST(StreamEngineTest, ResidencyStaysBoundedOnLargeSweep) {
  // 100k-point sweep of a tiny model: with materialization this would
  // hold 100k outcomes; the stream holds one sub-batch at a time.
  ReactionNetwork Net = makeDecayChainNetwork(2, 1.0);
  ParameterSpace Space(Net);
  Space.addAxis(initialAxis(Net, "S0", 0.5, 2.0));

  EngineOptions Opts;
  Opts.SubBatchSize = 512;
  Opts.EndTime = 0.1;
  Opts.OutputSamples = 0; // Endpoints only: keep the sweep fast.
  BatchEngine Engine(CostModel::paperSetup(), Opts);

  const size_t Sweep = 100000;
  auto Gen = makeGridGenerator(Space, {Sweep});
  CountingSink Sink;
  const StreamReport Report = Engine.stream(Space, *Gen, Sink);

  EXPECT_EQ(Sink.Count, Sweep);
  EXPECT_EQ(Report.Simulations, Sweep);
  EXPECT_EQ(Report.SubBatches, (Sweep + 511) / 512);
  EXPECT_EQ(Report.PeakResidentOutcomes, Opts.SubBatchSize);
  // The bound is also exported as a gauge.
  EXPECT_DOUBLE_EQ(
      Report.Metrics.gaugeValue("psg.engine.peak_resident_outcomes"),
      static_cast<double>(Report.PeakResidentOutcomes));
}
