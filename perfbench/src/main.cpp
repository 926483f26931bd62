//===- perfbench/src/main.cpp - End-to-end case-study benchmark -----------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload in this process and prints its metrics, ending with one
// JSON line {"correct", "attempted", "failed", "metrics"}:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// a separate run: some analyses untraced, the same number traced with the
// library's trace() collector on and bench spans around every public call,
// then the layer replay. It prints the per-layer metrics and, with
// --out-dir, writes the spans to D/spans-NAME-N.json.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Spans.h"
#include "Workloads.h"

#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;
using namespace psg;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--out-dir")
      A.OutDir = Value;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.Workload.empty() || !(A.Seconds > 0.0))
    usage("--workload and a positive --seconds are required");
  return A;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

/// Run environment, recorded in every result.
struct Environment {
  unsigned Nproc = 0;       ///< CPUs this process may run on.
  unsigned PoolWorkers = 0; ///< Threads of each engine's host pool.
  bool Valid = false;       ///< PoolWorkers <= Nproc.
};

Environment environment() {
  Environment E;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  E.Nproc = sched_getaffinity(0, sizeof(Set), &Set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&Set))
                : std::thread::hardware_concurrency();
  // BatchEngine builds its host runtime with HostWorkers = 0, which the
  // thread pool resolves to the hardware concurrency.
  E.PoolWorkers = std::max(1u, std::thread::hardware_concurrency());
  E.Valid = E.PoolWorkers <= E.Nproc;
  return E;
}

void printEnvironment(const Environment &E) {
  std::printf("env: nproc %u, host pool workers %u (the calling thread also "
              "runs chunks), compiler gcc %s, build %s, library assertions "
              "%s, run %s\n",
              E.Nproc, E.PoolWorkers, __VERSION__, PERFBENCH_BUILD_TYPE,
              PERFBENCH_LIB_ASSERTS ? "on" : "off",
              E.Valid ? "valid" : "INVALID (pool workers exceed nproc)");
  std::printf("env: library flags '%s'\n", PERFBENCH_LIB_FLAGS);
}

/// Peak resident memory of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the parent's peak across exec.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double KiB = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

/// Counter, gauge and histogram-sum increments of the registry over the
/// traced analyses only, so the replay between them does not count.
struct MetricTotals {
  std::map<std::string, double> Values;

  void addDelta(const MetricsSnapshot &After, const MetricsSnapshot &Before) {
    for (const CounterSample &C : After.Counters)
      Values[C.Name] += static_cast<double>(
          C.Value - Before.counterValue(C.Name));
    for (const GaugeSample &G : After.Gauges)
      Values[G.Name] += G.Value - Before.gaugeValue(G.Name);
    for (const HistogramSample &H : After.Histograms) {
      const HistogramSample *B = Before.histogram(H.Name);
      Values[H.Name] += H.Sum - (B ? B->Sum : 0.0);
    }
  }
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0.0 : It->second;
  }
};

struct Repetitions {
  std::vector<double> Walls;
  size_t Simulations = 0;
  size_t Failures = 0;
  double ModeledSeconds = 0.0;
  IntegrationStats Stats;
};

/// Repeated analyses: at least \p MinReps, then until \p Seconds of
/// analysis wall time have passed. \p Around wraps each analysis.
Repetitions
repeat(Workload &W, double Seconds, size_t MinReps, SpanLog *Spans,
       const std::function<void(const std::function<void()> &)> &Around) {
  Repetitions R;
  double Elapsed = 0.0;
  while (R.Walls.size() < MinReps || Elapsed < Seconds) {
    if (Spans)
      Spans->beginRep(static_cast<int>(R.Walls.size()));
    AnalysisCounts C;
    double Wall = 0.0;
    Around([&] {
      WallTimer Timer;
      C = W.analyze(Spans);
      Wall = Timer.seconds();
    });
    R.Walls.push_back(Wall);
    Elapsed += Wall;
    R.Simulations += C.Simulations;
    R.Failures += C.Failures;
    R.ModeledSeconds += C.ModeledSeconds;
    R.Stats.merge(C.Stats);
  }
  return R;
}

/// The per-layer metrics of a traced run; totals are divided by the number
/// of traced analyses, so every value is per analysis.
std::vector<Metric> layerMetrics(const Repetitions &Traced,
                                 const Repetitions &Untraced,
                                 const SpanLog &Spans,
                                 const MetricTotals &Totals,
                                 const AnalysisLayerTimes &Layers,
                                 const ReplayResult &Replay,
                                 const Environment &Env,
                                 double CompilationsPerEngine) {
  const double Reps = static_cast<double>(Traced.Walls.size());
  // A registry counter, gauge or histogram sum, per analysis.
  auto count = [&](const std::string &Name) { return Totals.get(Name) / Reps; };
  const IntegrationStats &S = Traced.Stats;
  const std::map<std::string, double> Self = Spans.selfSecondsByName();
  const std::map<std::string, double> Total = Spans.totalSecondsByName();
  auto spanSum = [&](const std::map<std::string, double> &By,
                     const char *Prefix) {
    double Seconds = 0.0;
    for (const auto &[Name, Value] : By)
      if (Name.rfind(Prefix, 0) == 0)
        Seconds += Value;
    return Seconds / Reps;
  };

  std::vector<Metric> M;
  // core
  std::vector<double> Calls = Layers.EngineCallSeconds;
  if (Calls.empty())
    Calls = Spans.durationsOf("engine.run");
  const double Dispatch = count("psg.engine.sub_batch.dispatch_s");
  M.push_back({"core.sub_batches", count("psg.engine.sub_batches"), "count"});
  M.push_back({"core.prepare_s", count("psg.engine.sub_batch.prepare_s"),
               "s"});
  M.push_back({"core.sink_s", count("psg.engine.sub_batch.sink_s"), "s"});
  M.push_back({"core.call_s", median(Calls), "s"});
  M.push_back({"core.overhead_s", sum(Calls) / Reps - Dispatch, "s"});

  // sim
  const double Explicit = count("psg.engine.routed_explicit");
  const double Implicit = count("psg.engine.routed_implicit");
  const double Reroutes = count("psg.engine.stiffness_reroutes");
  const double Probes = Explicit + Implicit;
  const double ProbeSeconds =
      Probes * (Replay.Rhs.perCall() + Replay.probeSeconds());
  M.push_back({"sim.routed_explicit", Explicit, "count"});
  M.push_back({"sim.routed_implicit", Implicit, "count"});
  M.push_back({"sim.reroutes", Reroutes, "count"});
  M.push_back({"sim.reroute_frac", Explicit > 0 ? Reroutes / Explicit : 0.0,
               "ratio"});
  M.push_back({"sim.reroute_waste_s",
               Reroutes * Replay.RerouteAttempt.perCall(), "s"});
  M.push_back({"sim.probe_s", ProbeSeconds, "s"});

  // vgpu
  const double Busy = count("psg.vgpu.pool.busy_s");
  const double PoolWall = count("psg.vgpu.pool.wall_s");
  const double VgpuSelf = spanSum(Self, "vgpu.kernel.");
  M.push_back({"vgpu.workers", static_cast<double>(Env.PoolWorkers),
               "count"});
  M.push_back({"vgpu.pool.utilization",
               PoolWall > 0 ? Busy / (PoolWall * (Env.PoolWorkers + 1)) : 0.0,
               "ratio"});
  M.push_back({"vgpu.pool.busy_s", Busy, "s"});
  M.push_back({"vgpu.self_s", VgpuSelf, "s"});

  // ode
  double Accepted = 0.0, Rejected = 0.0, OdeSelf = 0.0, OdeProbes = 0.0;
  for (const char *Solver : {"dopri5", "radau5", "lsoda"}) {
    const std::string P = std::string("psg.ode.") + Solver;
    const double A = count(P + ".accepted_steps");
    const double Rj = count(P + ".rejected_steps");
    Accepted += A;
    Rejected += Rj;
    OdeSelf += (A + Rj) * Replay.selfSecondsPerStep(Solver);
    OdeProbes +=
        count(P + ".jacobian_evaluations") * Replay.probeShare(Solver);
    const std::string O = std::string("ode.") + Solver;
    M.push_back({O + ".integrations", count(P + ".integrations"), "count"});
    M.push_back({O + ".accepted_steps", A, "count"});
    M.push_back({O + ".rejected_steps", Rj, "count"});
    M.push_back({O + ".integrate_s", count(P + ".integrate_wall_s"), "s"});
  }
  M.push_back({"ode.rejected_frac",
               Accepted + Rejected > 0 ? Rejected / (Accepted + Rejected)
                                       : 0.0,
               "ratio"});
  M.push_back({"ode.newton_iterations",
               static_cast<double>(S.NewtonIterations) / Reps, "count"});
  M.push_back({"ode.self_s", OdeSelf, "s"});
  const double OdeProbeSeconds = OdeProbes * Replay.probeSeconds();
  M.push_back({"ode.probe_s", OdeProbeSeconds, "s"});

  // rbm
  const double RhsEvals = static_cast<double>(S.RhsEvaluations) / Reps;
  const double JacEvals = static_cast<double>(S.JacobianEvaluations) / Reps;
  M.push_back({"rbm.rhs_evals", RhsEvals, "count"});
  M.push_back({"rbm.rhs_ns", 1e9 * Replay.Rhs.perCall(), "ns"});
  M.push_back({"rbm.rhs_s", RhsEvals * Replay.Rhs.perCall(), "s"});
  M.push_back({"rbm.jac_evals", JacEvals, "count"});
  // Newton Jacobians go into a matrix the solver keeps; probe Jacobians
  // (the engine's routing probe, LSODA's stiffness probes) into a fresh one.
  const double NewtonJacobians = JacEvals - Probes - OdeProbes;
  M.push_back({"rbm.jac_us", 1e6 * Replay.Jac.perCall(), "us"});
  M.push_back({"rbm.probe_jac_us", 1e6 * Replay.ProbeJac.perCall(), "us"});
  M.push_back({"rbm.jac_s",
               NewtonJacobians * Replay.Jac.perCall() +
                   (Probes + OdeProbes) * Replay.ProbeJac.perCall(),
               "s"});
  M.push_back({"rbm.compilations", CompilationsPerEngine, "count"});

  // linalg
  const double LuSeconds =
      Replay.luSeconds(static_cast<double>(S.LuFactorizations),
                       static_cast<double>(S.ComplexLuFactorizations),
                       static_cast<double>(S.LuSolves)) /
      Reps;
  M.push_back({"linalg.lu_factors",
               static_cast<double>(S.LuFactorizations) / Reps, "count"});
  M.push_back({"linalg.clu_factors",
               static_cast<double>(S.ComplexLuFactorizations) / Reps,
               "count"});
  M.push_back({"linalg.lu_solves", static_cast<double>(S.LuSolves) / Reps,
               "count"});
  M.push_back({"linalg.lu_factor_us", 1e6 * Replay.LuFactor.perCall(), "us"});
  M.push_back(
      {"linalg.clu_factor_us", 1e6 * Replay.CluFactor.perCall(), "us"});
  M.push_back({"linalg.lu_solve_us", 1e6 * Replay.LuSolve.perCall(), "us"});
  M.push_back({"linalg.lu_s", LuSeconds, "s"});
  M.push_back({"linalg.probe_us", 1e6 * Replay.Probe.perCall(), "us"});

  // analysis
  const double Root = spanSum(Total, "bench.run");
  M.push_back({"analysis.reduce_s", Layers.ReduceSeconds / Reps, "s"});
  M.push_back({"analysis.sobol.estimate_s",
               Total.count("bench.runSobolSa") ? Root - sum(Calls) / Reps
                                               : 0.0,
               "s"});
  M.push_back({"analysis.pso.update_s",
               Total.count("bench.runPso")
                   ? Root - Layers.ObjectiveSeconds / Reps
                   : 0.0,
               "s"});
  M.push_back({"analysis.fitness_s", Layers.FitnessSeconds / Reps, "s"});

  // Whole run. Outside the solver spans every interval of an analysis is
  // some span's self time; inside them (wall W, CPU seconds I over all
  // threads) the replayed components explain E of I, so the unexplained
  // wall is (I - E) / (I / W).
  const double MainSelf = spanSum(Self, "bench.") + spanSum(Self, "analysis.") +
                          spanSum(Self, "engine.") + VgpuSelf;
  const double SolverCpu = spanSum(Total, "ode.integrate.");
  const double SolverWall = Root - MainSelf;
  const double Explained = (RhsEvals - Probes) * Replay.Rhs.perCall() +
                           NewtonJacobians * Replay.Jac.perCall() +
                           OdeProbeSeconds + LuSeconds + OdeSelf;
  const double Parallelism = SolverWall > 0 ? SolverCpu / SolverWall : 1.0;
  M.push_back({"solver.parallelism", Parallelism, "ratio"});
  M.push_back({"unaccounted_frac",
               Root > 0 ? (SolverCpu - Explained) / Parallelism / Root : 0.0,
               "ratio"});
  M.push_back({"trace_overhead_frac",
               median(Traced.Walls) / median(Untraced.Walls) - 1.0, "ratio"});
  M.push_back({"vgpu.modeled_sim_s", Traced.ModeledSeconds / Reps,
               "modeled_s"});
  return M;
}

/// Critical-path view of the layer metrics: main-thread span self times
/// as measured, solver-side CPU estimates divided by the parallelism.
void printLayerShares(const std::vector<Metric> &Ms, double AnalysisSeconds,
                      const SpanLog &Spans, double Reps) {
  auto get = [&](const char *Name) {
    for (const Metric &M : Ms)
      if (M.Name == Name)
        return M.Value;
    return 0.0;
  };
  const std::map<std::string, double> Self = Spans.selfSecondsByName();
  double Analysis = 0.0, Core = 0.0;
  for (const auto &[Name, Value] : Self) {
    if (Name.rfind("bench.", 0) == 0 || Name.rfind("analysis.", 0) == 0)
      Analysis += Value / Reps;
    else if (Name.rfind("engine.", 0) == 0)
      Core += Value / Reps;
  }
  const double P = get("solver.parallelism");
  const double Probes = get("sim.routed_explicit") + get("sim.routed_implicit");
  const double OdeProbes =
      get("ode.probe_s") > 0
          ? get("ode.probe_s") /
                (1e-6 * (get("rbm.probe_jac_us") + get("linalg.probe_us")))
          : 0.0;
  const std::vector<Metric> Shares = {
      {"analysis (self)", Analysis, "s"},
      {"core (self)", Core, "s"},
      {"vgpu (self)", get("vgpu.self_s"), "s"},
      {"rbm.rhs",
       1e-9 * (get("rbm.rhs_evals") - Probes) * get("rbm.rhs_ns") / P, "s"},
      {"rbm.jac (Newton)",
       1e-6 * (get("rbm.jac_evals") - Probes - OdeProbes) * get("rbm.jac_us") /
           P,
       "s"},
      {"linalg.lu", get("linalg.lu_s") / P, "s"},
      {"ode.probe", get("ode.probe_s") / P, "s"},
      {"ode.self", get("ode.self_s") / P, "s"},
      {"unaccounted", get("unaccounted_frac") * AnalysisSeconds, "s"},
  };
  std::printf("layer self times on the critical path, per analysis "
              "(solver-side estimates / parallelism %.2f; the engine's "
              "stiffness probe, sim.probe_s, runs beside the solver spans "
              "and is in no row):\n",
              P);
  for (const Metric &M : Shares)
    std::printf("  %-28s %14.6g s  %5.1f%%\n", M.Name.c_str(), M.Value,
                AnalysisSeconds > 0 ? 100.0 * M.Value / AnalysisSeconds : 0.0);
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  if (!makeWorkload(A.Workload, A.Seed))
    usage(("unknown workload " + A.Workload).c_str());
  const Environment Env = environment();

  // Set-up, several times; the last workload is the one measured. Set-up
  // takes milliseconds, so its median would follow whatever the machine
  // did in that instant: tracing-off runs set up once more before each
  // timed analysis, spreading the samples over the whole run.
  std::vector<double> SetupSeconds;
  auto timedSetup = [&] {
    WallTimer Timer;
    std::unique_ptr<Workload> Fresh = makeWorkload(A.Workload, A.Seed);
    Fresh->setup();
    SetupSeconds.push_back(Timer.seconds());
    return Fresh;
  };
  constexpr int InitialSetups = 5;
  // Parameterizations the replay draws from, and how many each replay
  // thread integrates before each traced analysis.
  constexpr size_t ReplaySample = 256;
  constexpr unsigned ReplayPerThread = 8;
  std::unique_ptr<Workload> W;
  for (int I = 0; I < InitialSetups; ++I) {
    W.reset();
    W = timedSetup();
  }
  const double CompilationsPerEngine =
      static_cast<double>(metrics().snapshot().counterValue(
          "psg.rbm.compilations")) /
      InitialSetups;

  WallTimer Warmup;
  const AnalysisCounts First = W->analyze(nullptr);
  const double FirstSeconds = Warmup.seconds();

  std::printf("perfbench %s seed %llu, %s\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed),
              A.Trace ? "traced run (per-layer metrics)"
                      : "tracing off (end-to-end metrics)");
  printEnvironment(Env);

  Repetitions Untraced, Traced;
  SpanLog Spans;
  MetricTotals Totals;
  ReplayResult Replay;
  const auto Plain = [](const std::function<void()> &Analyze) { Analyze(); };
  if (!A.Trace) {
    Untraced = repeat(*W, A.Seconds, 3, nullptr,
                      [&](const std::function<void()> &Analyze) {
                        timedSetup();
                        Analyze();
                      });
  } else {
    Untraced = repeat(*W, 0.4 * A.Seconds, 2, nullptr, Plain);
    // Before each traced analysis, a slice of the replay, untraced; so
    // the replayed per-call times sample the same stretch of machine time
    // as the analyses they are set against.
    LayerReplay Layers(W->replayInput(ReplaySample));
    Traced = repeat(
        *W, 0.4 * A.Seconds, Untraced.Walls.size(), &Spans,
        [&](const std::function<void()> &Analyze) {
          Layers.runSlice(ReplayPerThread);
          const MetricsSnapshot Before = metrics().snapshot();
          trace().enable();
          Analyze();
          trace().disable();
          Totals.addDelta(metrics().snapshot(), Before);
        });
    Replay = Layers.result();
    Spans.finish(trace().events());
    trace().clear();
  }
  const double PeakRss = peakRssMb();

  const CheckOutcome Check = W->check();
  const Repetitions &Measured = A.Trace ? Traced : Untraced;
  const size_t Simulations = Measured.Simulations + First.Simulations;
  const size_t SimFailures = Measured.Failures + First.Failures;
  const size_t Attempted = Simulations + Check.Checked;
  const size_t Failed = SimFailures + Check.Mismatches;
  const bool Correct = Check.Mismatches == 0 && Env.Valid;

  std::vector<Metric> Result;
  const double AnalysisSeconds = median(Untraced.Walls);
  if (!A.Trace) {
    const std::vector<Metric> EndToEnd = {
        {"analysis_s", AnalysisSeconds, "s"},
        {"sims_per_s",
         static_cast<double>(Untraced.Simulations) / sum(Untraced.Walls),
         "1/s"},
        {"setup_s", median(SetupSeconds), "s"},
        {"peak_rss_mb", PeakRss, "MB"},
    };
    std::printf("measured (host wall clock, tracing off; analysis_s is the "
                "median of %zu analyses after one warm-up of %.4g s; setup_s "
                "the median of %zu set-ups):\n",
                Untraced.Walls.size(), FirstSeconds, SetupSeconds.size());
    printMetrics(EndToEnd);
    std::printf("analysis walls (s):");
    for (double Wall : Untraced.Walls)
      std::printf(" %.4f", Wall);
    std::printf("\n");
    Result = EndToEnd;
  } else {
    Result = layerMetrics(Traced, Untraced, Spans, Totals, W->Layers, Replay,
                          Env, CompilationsPerEngine);
    std::vector<Metric> LayerBlock;
    for (const Metric &M : Result)
      if (M.Unit != "modeled_s")
        LayerBlock.push_back(M);
    std::printf("per-layer (measured counts and spans; *_us, *_ns and *_s "
                "below the solver replayed and estimated), per analysis:\n");
    printMetrics(LayerBlock);
    const double TracedReps = static_cast<double>(Traced.Walls.size());
    printLayerShares(Result, sum(Traced.Walls) / TracedReps, Spans,
                     TracedReps);
    std::printf("analysis_s untraced %.6g s (%zu analyses), traced %.6g s "
                "(%zu analyses)\n",
                AnalysisSeconds, Untraced.Walls.size(), median(Traced.Walls),
                Traced.Walls.size());
    if (!A.OutDir.empty()) {
      const std::string Path = A.OutDir + "/spans-" + A.Workload + "-" +
                               std::to_string(A.Seed) + ".json";
      if (!Spans.writeJson(Path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    }
  }
  std::printf("failed_frac %.6g (%zu failed of %zu attempted: %zu "
              "simulations, %zu output checks)\n",
              static_cast<double>(Failed) / static_cast<double>(Attempted),
              Failed, Attempted, Simulations, Check.Checked);
  std::printf("modeled (vgpu cost model on the paper's GPU; not measured, "
              "never an end-to-end metric):\n");
  printMetrics({{"vgpu.modeled_sim_s",
                 Measured.ModeledSeconds /
                     static_cast<double>(Measured.Walls.size()),
                 "modeled_s"}});
  std::printf("output check: %s (%zu of %zu passed)\n",
              Check.Mismatches == 0 ? "pass" : "FAIL",
              Check.Checked - Check.Mismatches, Check.Checked);
  for (const std::string &Line : Check.Lines)
    std::printf("  %s\n", Line.c_str());
  printResult(Correct, Attempted, Failed, Result);
  return 0;
}
