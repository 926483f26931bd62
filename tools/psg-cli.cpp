//===- tools/psg-cli.cpp - Command-line driver ----------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the library:
//
//   psg-cli info <model>                     model summary + conservation
//   psg-cli simulate <model> [options]       batch simulation -> CSV
//   psg-cli psa1d <model> --axis ... [...]   1-D parameter sweep
//   psg-cli generate --species N --reactions M [--seed S] [--out F]
//   psg-cli convert <in> <out>               .txt <-> .xml (SBML subset)
//
// Model files ending in .xml/.sbml are read as SBML; anything else uses
// the text format of rbm/ModelIo.h.
//
//===----------------------------------------------------------------------===//

#include "CliOptions.h"

#include "analysis/Psa.h"
#include "analysis/SteadyState.h"
#include "core/BatchEngine.h"
#include "io/ResultsIo.h"
#include "rbm/Conservation.h"
#include "rbm/CuratedModels.h"
#include "rbm/ModelIo.h"
#include "rbm/SbmlIo.h"
#include "rbm/SyntheticGenerator.h"

#include "linalg/Eigen.h"
#include "ode/Radau5.h"
#include "sim/Simulators.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

using namespace psg;

namespace {
/// Prints a clean user-error message and returns the usage exit code
/// (2). Bad flags and values, unloadable models and unknown simulators
/// must take this path, not fatalError: the user gets a message and a
/// sane exit status instead of an abort from the middle of a run.
/// fatalError stays for file-write failures.
int cliError(const std::string &Message) {
  std::fprintf(stderr, "psg-cli: error: %s\n", Message.c_str());
  return 2;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

bool isSbmlPath(const std::string &Path) {
  return endsWith(Path, ".xml") || endsWith(Path, ".sbml");
}

/// Resolves a "curated:<name>" pseudo-path to a built-in network.
ErrorOr<ReactionNetwork> loadCuratedModel(const std::string &Name) {
  if (Name == "robertson")
    return makeRobertsonNetwork();
  if (Name == "brusselator")
    return makeBrusselatorNetwork();
  if (Name == "lotka-volterra")
    return makeLotkaVolterraNetwork();
  if (Name == "decay-chain")
    return makeDecayChainNetwork();
  if (Name == "saturating-toy")
    return makeSaturatingToyNetwork();
  if (Name == "repressilator")
    return makeRepressilatorNetwork();
  if (Name == "metabolic")
    return makeMetabolicSurrogate().Net;
  if (Name == "autophagy-small")
    return makeAutophagySurrogate(/*Units=*/8, /*ChainLength=*/8).Net;
  return ErrorOr<ReactionNetwork>::failure(
      "unknown curated model '" + Name +
      "' (known: robertson, brusselator, lotka-volterra, decay-chain, "
      "saturating-toy, repressilator, metabolic, autophagy-small)");
}

ErrorOr<ReactionNetwork> loadModel(const std::string &Path) {
  ErrorOr<ReactionNetwork> Net =
      Path.rfind("curated:", 0) == 0 ? loadCuratedModel(Path.substr(8))
      : isSbmlPath(Path)             ? loadSbmlFile(Path)
                                     : loadModelFile(Path);
  if (!Net)
    return Status::failure("cannot load model '" + Path +
                           "': " + Net.message());
  return Net;
}

void saveModelOrDie(const ReactionNetwork &Net, const std::string &Path) {
  Status S = isSbmlPath(Path) ? saveSbmlFile(Net, Path)
                              : saveModelFile(Net, Path);
  if (!S)
    fatalError("cannot save model '" + Path + "': " + S.message());
}

/// "N failed", followed when N > 0 by the count of each failure status,
/// e.g. "4 failed: 4 max-steps-exceeded".
std::string failureSummary(const std::vector<SimulationOutcome> &Outcomes) {
  std::map<IntegrationStatus, size_t> ByStatus;
  size_t Failed = 0;
  for (const SimulationOutcome &O : Outcomes)
    if (!O.Result.ok()) {
      ++ByStatus[O.Result.Status];
      ++Failed;
    }
  std::string Summary = formatString("%zu failed", Failed);
  const char *Separator = ": ";
  for (const auto &[Why, Count] : ByStatus) {
    Summary += formatString("%s%zu %s", Separator, Count,
                            integrationStatusName(Why));
    Separator = ", ";
  }
  return Summary;
}

/// psa1d's summary and pipeline lines. The final-value reducer maps a
/// failed simulation to 0.0, so the map alone would show it as a real
/// value; the failure count says which reading applies.
void printPsaSummary(const StreamReport &Report) {
  std::printf("\n%zu simulations (%zu failed), modeled %.4g s\n",
              Report.Simulations, Report.Failures,
              Report.SimulationTime.total());
  std::printf("pipeline:           %llu sub-batches, %zu outcomes peak "
              "resident\n",
              (unsigned long long)Report.SubBatches,
              Report.PeakResidentOutcomes);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: psg-cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  info <model>\n"
      "      print species/reactions, kinetics mix, conservation laws,\n"
      "      and the initial-Jacobian stiffness estimate\n"
      "  simulate <model> [--tend T] [--samples K] [--batch B]\n"
      "           [--perturb] [--seed S] [--simulator NAME] [--out F.csv]\n"
      "      run a (optionally perturbed) batch; writes the first\n"
      "      trajectory as CSV and prints the engine report; exits 1\n"
      "      when a simulation failed\n"
      "  psa1d <model> --species NAME | --reaction IDX\n"
      "        --lo X --hi Y [--log] [--points P]\n"
      "        [--reporter NAME] [--tend T] [--samples K] [--out F.csv]\n"
      "        [--sub-batch B]\n"
      "      sweep one parameter; reports the reporter's final value\n"
      "      (0 for a failed simulation) and exits 1 when any failed.\n"
      "      Points are generated lazily and each sub-batch is reduced\n"
      "      as it finishes, so at most one sub-batch of outcomes is\n"
      "      ever resident; prints the peak residency\n"
      "  steady <model> [--maxtime T] [--timescale S]\n"
      "      search for a steady state by implicit integration\n"
      "  generate --species N --reactions M [--seed S] [--out F]\n"
      "      emit a synthetic mass-action model\n"
      "  convert <in> <out>\n"
      "      convert between the text format and the SBML subset\n"
      "\n"
      "global options (any command; every other flag must belong to\n"
      "the command, or psg-cli exits 2):\n"
      "  --metrics-json F.json   write the process metrics snapshot\n"
      "                          (psg-metrics-v1: solver step counters,\n"
      "                          sub-batch timings, host pool jobs)\n"
      "  --trace-json F.json     record spans and write a\n"
      "                          chrome://tracing-compatible event file\n"
      "\n"
      "model paths: a .txt model, an .xml/.sbml file, or curated:<name>\n"
      "             (robertson, brusselator, lotka-volterra, decay-chain,\n"
      "             saturating-toy, repressilator, metabolic,\n"
      "             autophagy-small)\n"
      "\n"
      "simulators: psg-engine (default), cpu-lsoda, cpu-vode,\n"
      "            gpu-coarse, gpu-fine\n");
  return 2;
}

int cmdInfo(const ReactionNetwork &Net) {
  std::printf("model:      %s\n", Net.name().c_str());
  std::printf("species:    %zu\n", Net.numSpecies());
  std::printf("reactions:  %zu\n", Net.numReactions());
  size_t MassAction = 0, Mm = 0, Hill = 0, HillRep = 0, MaxOrder = 0;
  for (const Reaction &Rx : Net.allReactions()) {
    MaxOrder = std::max<size_t>(MaxOrder, Rx.order());
    switch (Rx.Kind) {
    case KineticsKind::MassAction:
      ++MassAction;
      break;
    case KineticsKind::MichaelisMenten:
      ++Mm;
      break;
    case KineticsKind::Hill:
      ++Hill;
      break;
    case KineticsKind::HillRepression:
      ++HillRep;
      break;
    }
  }
  std::printf("kinetics:   %zu mass-action, %zu Michaelis-Menten, %zu "
              "Hill, %zu Hill-repression (max order %zu)\n",
              MassAction, Mm, Hill, HillRep, MaxOrder);

  ConservationLaws Laws = findConservationLaws(Net);
  std::printf("conserved:  %zu linear invariant(s)\n", Laws.count());
  for (size_t L = 0; L < std::min<size_t>(Laws.count(), 5); ++L) {
    std::printf("  law %zu:", L);
    int Printed = 0;
    for (size_t J = 0; J < Net.numSpecies() && Printed < 8; ++J)
      if (Laws.Basis[L][J] != 0.0) {
        std::printf(" %+.3g*%s", Laws.Basis[L][J],
                    Net.species(J).Name.c_str());
        ++Printed;
      }
    std::printf("%s\n",
                Printed == 8 ? " ..." : "");
  }

  CompiledOdeSystem Sys(Net);
  std::vector<double> Y = Net.initialState(), F0(Y.size());
  Sys.rhs(0, Y.data(), F0.data());
  Matrix J;
  Sys.jacobian(0, Y.data(), F0.data(), J);
  const double Rho = powerIterationSpectralRadius(J);
  const bool Stiff = Rho >= FineCoarseSimulator::DefaultStiffnessThreshold;
  std::printf("stiffness:  |lambda_max| ~ %.3g at t=0 -> engine routes "
              "to %s\n",
              Rho, Stiff ? "RADAU5 (stiff)" : "DOPRI5 (non-stiff)");
  return 0;
}

int cmdSimulate(const Options &O, const ReactionNetwork &Net) {

  EngineOptions Opts;
  Opts.SimulatorName = O.get("simulator", "psg-engine");
  Opts.EndTime = O.getDouble("tend", 10.0);
  Opts.OutputSamples = O.getUnsigned("samples", 101);
  if (Opts.OutputSamples < 2)
    return cliError("--samples needs at least 2: simulate writes the "
                    "first trajectory with both endpoints");
  if (Status S = checkSimulatorName(Opts.SimulatorName); !S)
    return cliError(S.message());
  BatchEngine Engine(CostModel::paperSetup(), Opts);

  const unsigned Batch = O.getUnsigned("batch", 1);
  Rng Generator(O.getUnsigned("seed", 1));
  std::vector<Parameterization> Params;
  for (unsigned I = 0; I < Batch; ++I) {
    Parameterization P;
    P.InitialState = Net.initialState();
    for (size_t R = 0; R < Net.numReactions(); ++R)
      P.RateConstants.push_back(Net.reaction(R).RateConstant);
    if (O.has("perturb") && I > 0)
      perturbRateConstants(P.RateConstants, Generator);
    Params.push_back(std::move(P));
  }

  EngineReport Report = Engine.runParameterizations(Net, std::move(Params));
  std::printf("simulations:        %zu (%s)\n", Report.Outcomes.size(),
              failureSummary(Report.Outcomes).c_str());
  std::printf("steps / rhs evals:  %llu / %llu\n",
              (unsigned long long)Report.TotalStats.Steps,
              (unsigned long long)Report.TotalStats.RhsEvaluations);
  std::printf("modeled time:       %.4g s simulation, %.4g s integration "
              "(%s)\n",
              Report.SimulationTime.total(),
              Report.IntegrationTime.total(), Opts.SimulatorName.c_str());
  std::printf("host wall time:     %.4g s\n", Report.HostWallSeconds);

  const std::string Out = O.get("out", "trajectory.csv");
  CsvWriter Csv = trajectoryToCsv(Report.Outcomes[0].Dynamics, &Net);
  if (Status S = Csv.saveToFile(Out); !S)
    fatalError(S.message());
  std::printf("first trajectory:   %s (%zu rows)\n", Out.c_str(),
              Csv.numRows());
  return Report.Failures == 0 ? 0 : 1;
}

int cmdPsa1d(const Options &O, const ReactionNetwork &Net) {

  ParameterSpace Space(Net);
  ParameterAxis Axis;
  Axis.Lo = O.getDouble("lo", 0.1);
  Axis.Hi = O.getDouble("hi", 10.0);
  Axis.LogScale = O.has("log");
  if (!(Axis.Lo < Axis.Hi))
    return cliError("--lo must be below --hi");
  if (Axis.LogScale && Axis.Lo <= 0)
    return cliError("--log needs a positive --lo");
  if (O.has("species")) {
    Axis.Name = O.get("species", "");
    Axis.Target = AxisTarget::InitialConcentration;
    auto Index = Net.findSpecies(Axis.Name);
    if (!Index)
      return cliError(Index.message());
    Axis.SpeciesIndex = *Index;
  } else if (O.has("reaction")) {
    Axis.Target = AxisTarget::RateConstant;
    const unsigned R = O.getUnsigned("reaction", 0);
    if (R >= Net.numReactions())
      return cliError(formatString("--reaction %u is out of range", R));
    Axis.Reactions = {R};
    Axis.Name = formatString("k%u", R);
  } else {
    return cliError("psa1d needs --species NAME or --reaction IDX");
  }
  Space.addAxis(Axis);

  size_t Reporter = Net.numSpecies() - 1;
  if (O.has("reporter")) {
    auto Index = Net.findSpecies(O.get("reporter", ""));
    if (!Index)
      return cliError(Index.message());
    Reporter = *Index;
  }

  EngineOptions Opts;
  Opts.SimulatorName = O.get("simulator", "psg-engine");
  Opts.EndTime = O.getDouble("tend", 10.0);
  Opts.OutputSamples = O.getUnsigned("samples", 51);
  if (Opts.OutputSamples < 2)
    return cliError("--samples needs at least 2: psa1d reads each "
                    "simulation's last sample");
  if (O.has("sub-batch"))
    Opts.SubBatchSize = O.getUnsigned("sub-batch", 64);
  if (Status S = checkSimulatorName(Opts.SimulatorName); !S)
    return cliError(S.message());
  BatchEngine Engine(CostModel::paperSetup(), Opts);

  const size_t Points = O.getUnsigned("points", 17);
  Psa1dResult R =
      runPsa1d(Engine, Space, Points, finalValueReducer(Reporter));

  std::printf("%14s %14s\n", Axis.Name.c_str(),
              Net.species(Reporter).Name.c_str());
  for (size_t I = 0; I < R.AxisValues.size(); ++I)
    std::printf("%14.6g %14.6g\n", R.AxisValues[I], R.Metric[I]);
  printPsaSummary(R.Report);

  if (O.has("out")) {
    CsvWriter Csv({Axis.Name, "final_value"});
    for (size_t I = 0; I < R.AxisValues.size(); ++I)
      Csv.addRow({R.AxisValues[I], R.Metric[I]});
    if (Status S = Csv.saveToFile(O.get("out", "")); !S)
      fatalError(S.message());
  }
  return R.Report.Failures == 0 ? 0 : 1;
}

int cmdSteady(const Options &O, const ReactionNetwork &Net) {
  CompiledOdeSystem Sys(Net);
  Radau5Solver Solver;
  SteadyStateOptions Opts;
  Opts.MaxTime = O.getDouble("maxtime", 1e6);
  Opts.TimeScale = O.getDouble("timescale", 100.0);
  SteadyStateResult R =
      findSteadyState(Sys, Net.initialState(), Solver, Opts);
  if (R.Reached)
    std::printf("steady state reached at t = %.6g (scaled residual "
                "%.3g)\n",
                R.Time, R.ResidualNorm);
  else
    std::printf("no steady state by t = %.6g (scaled residual %.3g) -- "
                "oscillatory or slow dynamics\n",
                R.Time, R.ResidualNorm);
  for (size_t I = 0; I < std::min<size_t>(Net.numSpecies(), 25); ++I)
    std::printf("  %-16s %.8g\n", Net.species(I).Name.c_str(),
                R.State[I]);
  if (Net.numSpecies() > 25)
    std::printf("  ... (%zu more species)\n", Net.numSpecies() - 25);
  return R.Reached ? 0 : 1;
}

int cmdGenerate(const Options &O) {
  SyntheticModelOptions G;
  G.NumSpecies = O.getUnsigned("species", 32);
  G.NumReactions = O.getUnsigned("reactions", 32);
  G.Seed = O.getUnsigned("seed", 1);
  ReactionNetwork Net = generateSyntheticModel(G);
  if (O.has("out")) {
    saveModelOrDie(Net, O.get("out", ""));
    std::printf("wrote %s (%zu species, %zu reactions)\n",
                O.get("out", "").c_str(), Net.numSpecies(),
                Net.numReactions());
  } else {
    std::fputs(writeModelText(Net).c_str(), stdout);
  }
  return 0;
}

int cmdConvert(const Options &O, const ReactionNetwork &Net) {
  saveModelOrDie(Net, O.Positional[1]);
  std::printf("converted %s -> %s (%zu species, %zu reactions)\n",
              O.Positional[0].c_str(), O.Positional[1].c_str(),
              Net.numSpecies(), Net.numReactions());
  return 0;
}

int runCommand(const std::string &Command, const Options &O) {
  // generate takes no operand, convert an input and an output path, and
  // every other command the model it reads.
  const size_t Operands = Command == "generate" ? 0
                          : Command == "convert" ? 2
                                                 : 1;
  if (O.Positional.size() > Operands)
    return cliError("unexpected operand '" + O.Positional[Operands] + "'");
  if (O.Positional.size() < Operands)
    return usage();
  if (Command == "generate")
    return cmdGenerate(O);
  auto Net = loadModel(O.Positional[0]);
  if (!Net)
    return cliError(Net.message());
  if (Command == "info")
    return cmdInfo(*Net);
  if (Command == "simulate")
    return cmdSimulate(O, *Net);
  if (Command == "psa1d")
    return cmdPsa1d(O, *Net);
  if (Command == "steady")
    return cmdSteady(O, *Net);
  return cmdConvert(O, *Net);
}
} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Command = Argv[1];
  const char *Flags = cliCommandFlags(Command);
  if (!Flags)
    return usage();
  const ErrorOr<Options> O = Options::parse(
      Argc, Argv, 2, std::string(Flags) + " metrics-json trace-json");
  if (!O)
    return cliError(O.message());

  const std::string MetricsPath = O->get("metrics-json", "");
  const std::string TracePath = O->get("trace-json", "");
  if (!TracePath.empty())
    trace().enable();

  const int Rc = runCommand(Command, *O);

  if (!MetricsPath.empty()) {
    if (Status S = saveMetricsJson(metrics().snapshot(), MetricsPath); !S)
      fatalError(S.message());
    std::fprintf(stderr, "metrics snapshot:   %s\n", MetricsPath.c_str());
  }
  if (!TracePath.empty()) {
    if (Status S = trace().saveToFile(TracePath); !S)
      fatalError(S.message());
    std::fprintf(stderr, "trace events:       %s (%zu events)\n",
                 TracePath.c_str(), trace().numEvents());
  }
  return Rc;
}
