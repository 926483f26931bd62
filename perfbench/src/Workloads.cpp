//===- perfbench/src/Workloads.cpp ----------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/Fitness.h"
#include "analysis/Oscillation.h"
#include "analysis/Psa.h"
#include "analysis/Pso.h"
#include "analysis/Sobol.h"
#include "ode/SolverRegistry.h"
#include "ode/Trajectory.h"
#include "rbm/CuratedModels.h"
#include "sim/Simulators.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <thread>

using namespace perfbench;
using namespace psg;

namespace {

/// Reference integration: RADAU5 at tolerances far below the engine's.
Trajectory integrateTight(const ReactionNetwork &Net,
                          const Parameterization &P, double EndTime,
                          size_t Samples, bool &Ok) {
  CompiledOdeSystem Sys(Net);
  if (!P.RateConstants.empty())
    Sys.setRateConstants(P.RateConstants);
  std::vector<double> Y =
      P.InitialState.empty() ? Net.initialState() : P.InitialState;
  auto SolverOrErr = createSolver("radau5");
  if (!SolverOrErr)
    fatalError(SolverOrErr.message());
  SolverOptions Opts;
  Opts.RelTol = 1e-10;
  Opts.AbsTol = 1e-14;
  Opts.MaxSteps = 1000000;
  TrajectoryRecorder Recorder(uniformGrid(0.0, EndTime, Samples), Y.size());
  Recorder.recordInitial(0.0, Y.data());
  Ok = (*SolverOrErr)->integrate(Sys, 0.0, EndTime, Y, Opts, &Recorder).ok();
  return Recorder.trajectory();
}

bool close(double Got, double Want, double Rel, double Abs) {
  return std::isfinite(Got) &&
         std::abs(Got - Want) <= Rel * std::abs(Want) + Abs;
}

AnalysisCounts countsOf(const StreamReport &Report) {
  AnalysisCounts C;
  C.Simulations = Report.Simulations;
  C.Failures = Report.Failures;
  C.ModeledSeconds = Report.SimulationTime.total();
  C.Stats = Report.TotalStats;
  return C;
}

/// Wraps \p Inner so that, when \p Times is set, its wall time is added to
/// Times->ReduceSeconds.
TrajectoryReducer timedReducer(TrajectoryReducer Inner,
                               AnalysisLayerTimes *Times) {
  if (!Times)
    return Inner;
  return [Inner = std::move(Inner), Times](const SimulationOutcome &O) {
    WallTimer Timer;
    const double Value = Inner(O);
    Times->ReduceSeconds += Timer.seconds();
    return Value;
  };
}

double stiffnessThreshold(BatchEngine &Engine) {
  if (auto *Sim = dynamic_cast<FineCoarseSimulator *>(&Engine.simulator()))
    return Sim->StiffnessThreshold;
  return 0.0;
}

ReplayInput engineReplayInput(BatchEngine &Engine,
                              const ReactionNetwork &Net) {
  ReplayInput In;
  In.Model = compileModel(Net);
  In.Path = Engine.options().SimulatorName == "cpu-lsoda"
                ? "lsoda"
                : Engine.options().SimulatorName;
  In.StartTime = Engine.options().StartTime;
  In.EndTime = Engine.options().EndTime;
  In.OutputSamples = Engine.options().OutputSamples;
  In.Options = Engine.options().Solver;
  In.StiffnessThreshold = stiffnessThreshold(Engine);
  // cpu-lsoda runs on the calling thread; the pooled personalities on
  // every pool worker plus the calling thread.
  In.Threads = In.Path == "lsoda"
                   ? 1
                   : std::max(1u, std::thread::hardware_concurrency()) + 1;
  return In;
}

/// The network's own constants and initial state.
Parameterization defaults(const ReactionNetwork &Net) {
  Parameterization P;
  P.InitialState = Net.initialState();
  for (size_t R = 0; R < Net.numReactions(); ++R)
    P.RateConstants.push_back(Net.reaction(R).RateConstant);
  return P;
}

/// Multiplies \p V by a seeded factor in [1 - Spread, 1 + Spread].
double jitter(double V, Rng &R, double Spread = 0.05) {
  return V * (1.0 + Spread * (2.0 * R.uniform() - 1.0));
}

//===----------------------------------------------------------------------===//
// psa2d-autophagy
//===----------------------------------------------------------------------===//

class Psa2dAutophagy final : public Workload {
public:
  explicit Psa2dAutophagy(uint64_t Seed) : Seed(Seed) {}

  void setup() override {
    Model = makeAutophagySurrogate(/*Units=*/16, /*ChainLength=*/8);
    Space = std::make_unique<ParameterSpace>(Model.Net);
    Rng Jitter(Seed);
    ParameterAxis Stress;
    Stress.Name = "AMPK*";
    Stress.Target = AxisTarget::InitialConcentration;
    Stress.SpeciesIndex = Model.StressSpecies;
    Stress.Lo = jitter(0.2, Jitter);
    Stress.Hi = jitter(2.5, Jitter);
    Space->addAxis(Stress);
    ParameterAxis P9;
    P9.Name = "P9";
    P9.Target = AxisTarget::RateConstantGroup;
    P9.Reactions = Model.P9Reactions;
    P9.Lo = jitter(1e-6, Jitter);
    P9.Hi = jitter(3e-2, Jitter);
    P9.LogScale = true;
    Space->addAxis(P9);

    EngineOptions Opts;
    Opts.SimulatorName = "psg-engine";
    Opts.EndTime = 80.0;
    Opts.OutputSamples = 161;
    Engine = std::make_unique<BatchEngine>(CostModel::paperSetup(), Opts);
    Engine->run(*Space, {{Stress.Lo, P9.Lo}});
  }

  AnalysisCounts analyze(SpanLog *Spans) override {
    TrajectoryReducer Reduce =
        timedReducer(oscillationAmplitudeReducer(Model.ReporterEif4ebp),
                     Spans ? &Layers : nullptr);
    SpanLog::Scope Root(Spans, "bench.runPsa2d");
    Last = runPsa2d(*Engine, *Space, Res, Res, Reduce);
    return countsOf(Last.Report);
  }

  CheckOutcome check() override {
    CheckOutcome Out;
    double MaxAmplitude = 0.0;
    for (double A : Last.Metric)
      MaxAmplitude = std::max(MaxAmplitude, A);
    Rng Pick(Seed + 101);
    for (int K = 0; K < 4; ++K) {
      const size_t I0 = Pick.uniformInt(Res), I1 = Pick.uniformInt(Res);
      const Parameterization P = Space->applyPoint(
          {Last.Axis0Values[I0], Last.Axis1Values[I1]});
      bool Ok = false;
      const Trajectory Ref = integrateTight(
          Model.Net, P, Engine->options().EndTime,
          Engine->options().OutputSamples, Ok);
      const double Want =
          Ok ? analyzeOscillation(Ref, Model.ReporterEif4ebp).Amplitude : NAN;
      const double Got = Last.at(I0, I1);
      const bool Pass = Ok && close(Got, Want, 0.05, 0.01 * MaxAmplitude);
      ++Out.Checked;
      Out.Mismatches += !Pass;
      Out.Lines.push_back(formatString(
          "psa cell (%zu,%zu) amplitude engine %.6g reference %.6g: %s", I0,
          I1, Got, Want, Pass ? "pass" : "FAIL"));
    }
    return Out;
  }

  ReplayInput replayInput(size_t SampleSize) override {
    ReplayInput In = engineReplayInput(*Engine, Model.Net);
    Rng Pick(Seed + 202);
    for (size_t K = 0; K < SampleSize; ++K)
      In.Params.push_back(Space->applyPoint(
          {Last.Axis0Values[Pick.uniformInt(Res)],
           Last.Axis1Values[Pick.uniformInt(Res)]}));
    return In;
  }

private:
  static constexpr size_t Res = 16;
  uint64_t Seed;
  AutophagySurrogate Model;
  std::unique_ptr<ParameterSpace> Space;
  std::unique_ptr<BatchEngine> Engine;
  Psa2dResult Last;
};

//===----------------------------------------------------------------------===//
// sobol-metabolic
//===----------------------------------------------------------------------===//

class SobolMetabolic final : public Workload {
public:
  explicit SobolMetabolic(uint64_t Seed) : Seed(Seed) {}

  void setup() override {
    Model = makeMetabolicSurrogate();
    Space = std::make_unique<ParameterSpace>(Model.Net);
    Rng Jitter(Seed);
    for (unsigned SpeciesIdx : Model.IsoformSpecies) {
      ParameterAxis Axis;
      Axis.Name = Model.Net.species(SpeciesIdx).Name;
      Axis.Target = AxisTarget::InitialConcentration;
      Axis.SpeciesIndex = SpeciesIdx;
      Axis.Lo = 0.0;
      Axis.Hi = jitter(1e-2, Jitter);
      Space->addAxis(Axis);
    }
    EngineOptions Opts;
    Opts.SimulatorName = "psg-engine";
    Opts.EndTime = 10.0;
    Opts.OutputSamples = 2;
    Engine = std::make_unique<BatchEngine>(CostModel::paperSetup(), Opts);
    // The single-simulation call doubles as the reference run of the
    // deviation output.
    EngineReport BaseRun =
        Engine->runParameterizations(Model.Net, {defaults(Model.Net)});
    Reference = finalValueReducer(Model.ReporterR5P)(BaseRun.Outcomes[0]);
  }

  AnalysisCounts analyze(SpanLog *Spans) override {
    // The first analysis keeps every 26th outcome's initial state and
    // reporter endpoint (256 of the 6656) for the check and the replay;
    // analyses are deterministic, so later ones produce the same values.
    const bool Capture = Captured.empty();
    size_t Calls = 0;
    const TrajectoryReducer Endpoint = finalValueReducer(Model.ReporterR5P);
    TrajectoryReducer Deviation = [&](const SimulationOutcome &O) {
      const double Value = Endpoint(O);
      if (Capture && Calls++ % 26 == 0 && O.Result.ok()) {
        const double *Y0 = O.Dynamics.state(0);
        Captured.push_back(
            {std::vector<double>(Y0, Y0 + O.Dynamics.dimension()), Value});
      }
      return Value - Reference;
    };
    SobolOptions Opts;
    Opts.BaseSamples = 512;
    Opts.BootstrapRounds = 100;
    Opts.Seed = Seed;
    TrajectoryReducer Reduce =
        timedReducer(std::move(Deviation), Spans ? &Layers : nullptr);
    SpanLog::Scope Root(Spans, "bench.runSobolSa");
    Last = runSobolSa(*Engine, *Space, Reduce, Opts);
    return countsOf(Last.Report);
  }

  CheckOutcome check() override {
    CheckOutcome Out;
    bool Finite = Last.OutputVariance > 0.0;
    for (const SobolIndex &I : Last.Indices)
      Finite = Finite && std::isfinite(I.S1) && std::isfinite(I.ST);
    ++Out.Checked;
    Out.Mismatches += !Finite;
    Out.Lines.push_back(formatString(
        "sobol indices finite, output variance %.4g: %s", Last.OutputVariance,
        Finite ? "pass" : "FAIL"));
    Rng Pick(Seed + 101);
    for (int K = 0; K < 4 && !Captured.empty(); ++K) {
      const Sample &S = Captured[Pick.uniformInt(Captured.size())];
      Parameterization P;
      P.InitialState = S.InitialState;
      bool Ok = false;
      const Trajectory Ref =
          integrateTight(Model.Net, P, Engine->options().EndTime, 2, Ok);
      const double Want =
          Ok ? Ref.value(Ref.numSamples() - 1, Model.ReporterR5P) : NAN;
      const bool Pass = Ok && close(S.Endpoint, Want, 1e-4, 1e-10);
      ++Out.Checked;
      Out.Mismatches += !Pass;
      Out.Lines.push_back(formatString(
          "sobol R5P endpoint engine %.9g reference %.9g: %s", S.Endpoint,
          Want, Pass ? "pass" : "FAIL"));
    }
    return Out;
  }

  ReplayInput replayInput(size_t SampleSize) override {
    ReplayInput In = engineReplayInput(*Engine, Model.Net);
    Rng Pick(Seed + 202);
    for (size_t K = 0; K < SampleSize && !Captured.empty(); ++K) {
      Parameterization P = defaults(Model.Net);
      P.InitialState = Captured[Pick.uniformInt(Captured.size())].InitialState;
      In.Params.push_back(std::move(P));
    }
    return In;
  }

private:
  struct Sample {
    std::vector<double> InitialState;
    double Endpoint = 0.0;
  };
  uint64_t Seed;
  MetabolicSurrogate Model;
  std::unique_ptr<ParameterSpace> Space;
  std::unique_ptr<BatchEngine> Engine;
  double Reference = 0.0;
  SobolResult Last;
  std::vector<Sample> Captured;
};

//===----------------------------------------------------------------------===//
// pe-metabolic-lsoda
//===----------------------------------------------------------------------===//

class PeMetabolicLsoda final : public Workload {
public:
  explicit PeMetabolicLsoda(uint64_t Seed) : Seed(Seed) {}

  void setup() override {
    Model = makeMetabolicSurrogate();
    Space = std::make_unique<ParameterSpace>(Model.Net);
    Bounds.clear();
    for (size_t I = 0; I < 12; ++I) {
      const size_t R = Model.UnknownParameters[I];
      const double True = Model.Net.reaction(R).RateConstant;
      ParameterAxis Axis;
      Axis.Name = formatString("k%zu", R);
      Axis.Target = AxisTarget::RateConstant;
      Axis.Reactions = {R};
      Axis.Lo = True * 0.1;
      Axis.Hi = True * 10.0;
      Axis.LogScale = true;
      Space->addAxis(Axis);
      Bounds.emplace_back(Axis.Lo, Axis.Hi);
    }
    Observed = {Model.ReporterR5P};
    for (size_t V = 0; V < 6; ++V)
      Observed.push_back(V);

    EngineOptions Opts;
    Opts.SimulatorName = "cpu-lsoda";
    Opts.EndTime = 10.0;
    Opts.OutputSamples = 21;
    Engine = std::make_unique<BatchEngine>(CostModel::paperSetup(), Opts);
    // The single-simulation call is the target run with the true
    // constants.
    Target = Engine->runParameterizations(Model.Net, {defaults(Model.Net)})
                 .Outcomes[0]
                 .Dynamics;
  }

  AnalysisCounts analyze(SpanLog *Spans) override {
    AnalysisCounts Counts;
    AnalysisLayerTimes *Times = Spans ? &Layers : nullptr;
    const bool Capture = Positions.empty();
    BatchObjective Objective =
        [&](const std::vector<std::vector<double>> &Swarm) {
          WallTimer ObjectiveTimer;
          EngineReport Rep;
          {
            SpanLog::Scope Call(Spans, "bench.BatchEngine.run");
            WallTimer CallTimer;
            Rep = Engine->run(*Space, Swarm);
            if (Times)
              Times->EngineCallSeconds.push_back(CallTimer.seconds());
          }
          std::vector<double> F(Swarm.size(), FailurePenalty);
          {
            SpanLog::Scope Score(Spans, "bench.fitness");
            WallTimer FitnessTimer;
            for (size_t I = 0; I < Rep.Outcomes.size(); ++I)
              if (Rep.Outcomes[I].Result.ok())
                F[I] = relativeTrajectoryDistance(Rep.Outcomes[I].Dynamics,
                                                  Target, Observed);
            if (Times)
              Times->FitnessSeconds += FitnessTimer.seconds();
          }
          Counts.Simulations += Rep.Outcomes.size();
          Counts.Failures += Rep.Failures;
          Counts.ModeledSeconds += Rep.SimulationTime.total();
          Counts.Stats.merge(Rep.TotalStats);
          if (Capture)
            Positions.insert(Positions.end(), Swarm.begin(), Swarm.end());
          if (Times)
            Times->ObjectiveSeconds += ObjectiveTimer.seconds();
          return F;
        };
    PsoOptions Pso;
    Pso.SwarmSize = 16;
    Pso.Iterations = 15;
    Pso.Seed = Seed;
    Pso.FuzzySelfTuning = true;
    SpanLog::Scope Root(Spans, "bench.runPso");
    Last = runPso(Bounds, Objective, Pso);
    return Counts;
  }

  CheckOutcome check() override {
    CheckOutcome Out;
    const double EndTime = Engine->options().EndTime;
    const size_t Samples = Engine->options().OutputSamples;
    bool TargetOk = false, BestOk = false;
    const Trajectory TargetRef =
        integrateTight(Model.Net, {}, EndTime, Samples, TargetOk);
    const Trajectory BestRef = integrateTight(
        Model.Net, Space->applyPoint(Last.BestPosition), EndTime, Samples,
        BestOk);
    const double Want =
        TargetOk && BestOk
            ? relativeTrajectoryDistance(BestRef, TargetRef, Observed)
            : NAN;
    const bool Pass = close(Last.BestFitness, Want, 0.05, 1e-4);
    const bool Converged = Last.BestFitness < ConvergenceBound;
    Out.Checked += 2;
    Out.Mismatches += !Pass + !Converged;
    Out.Lines.push_back(formatString(
        "pe best fitness engine %.6g re-evaluated %.6g: %s", Last.BestFitness,
        Want, Pass ? "pass" : "FAIL"));
    Out.Lines.push_back(formatString(
        "pe best fitness %.6g below convergence bound %.3g "
        "(initial swarm best %.6g): %s",
        Last.BestFitness, ConvergenceBound,
        Last.ConvergenceHistory.empty() ? NAN
                                        : Last.ConvergenceHistory.front(),
        Converged ? "pass" : "FAIL"));
    return Out;
  }

  ReplayInput replayInput(size_t SampleSize) override {
    ReplayInput In = engineReplayInput(*Engine, Model.Net);
    Rng Pick(Seed + 202);
    for (size_t K = 0; K < SampleSize && !Positions.empty(); ++K)
      In.Params.push_back(
          Space->applyPoint(Positions[Pick.uniformInt(Positions.size())]));
    return In;
  }

private:
  static constexpr double FailurePenalty = 1e6;
  static constexpr double ConvergenceBound = 0.01;
  uint64_t Seed;
  MetabolicSurrogate Model;
  std::unique_ptr<ParameterSpace> Space;
  std::unique_ptr<BatchEngine> Engine;
  std::vector<std::pair<double, double>> Bounds;
  std::vector<size_t> Observed;
  Trajectory Target;
  PsoResult Last;
  std::vector<std::vector<double>> Positions;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "psa2d-autophagy", "sobol-metabolic", "pe-metabolic-lsoda"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed) {
  if (Name == "psa2d-autophagy")
    return std::make_unique<Psa2dAutophagy>(Seed);
  if (Name == "sobol-metabolic")
    return std::make_unique<SobolMetabolic>(Seed);
  if (Name == "pe-metabolic-lsoda")
    return std::make_unique<PeMetabolicLsoda>(Seed);
  return nullptr;
}
