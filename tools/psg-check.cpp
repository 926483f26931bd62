//===- tools/psg-check.cpp - Conformance & fuzzing driver -----------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the psg::check conformance subsystem:
//
//   psg-check golden [--solver NAME]        golden-library accuracy +
//                                           convergence-order report
//   psg-check fuzz --seed N --cases M       randomized differential run
//             [--time-budget SEC] [--repro-dir DIR] [--tend T]
//   psg-check replay <case.psg>             re-run a minimized repro
//   psg-check properties                    tolerance-scaling and
//                                           warm/cold dispatch invariants
//
// Exit status is 0 when every check passes, 1 on any divergence or
// violated invariant, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "CliOptions.h"

#include "check/CaseFile.h"
#include "check/Differential.h"
#include "check/Golden.h"
#include "check/OrderProbe.h"
#include "check/Properties.h"
#include "ode/SolverRegistry.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

using namespace psg;

namespace {

/// Prints a user-error message and returns the usage exit code (2).
int checkError(const std::string &Message) {
  std::fprintf(stderr, "psg-check: error: %s\n", Message.c_str());
  return 2;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: psg-check <command> [options]\n"
      "\n"
      "commands:\n"
      "  golden [--solver NAME]\n"
      "      integrate the golden library with every registered solver\n"
      "      (or one) and verify end-state accuracy plus the empirical\n"
      "      convergence order of the fixed-order methods\n"
      "  fuzz [--seed N] [--cases M] [--tend T] [--samples K]\n"
      "       [--time-budget SEC] [--repro-dir DIR] [--compare-tol X]\n"
      "       [--stats-json FILE]\n"
      "      differential-test every simulator personality on seeded\n"
      "      random reaction networks against a Richardson reference;\n"
      "      minimized .psg repro files are written on divergence and\n"
      "      --stats-json records a machine-readable run summary\n"
      "  replay <case.psg> [--compare-tol X]\n"
      "      re-run the comparison recorded in a minimized repro file\n"
      "  properties\n"
      "      check the tolerance-scaling and warm/cold dispatch\n"
      "      invariance properties\n");
  return 2;
}

/// Accuracy thresholds for the golden end-state check: loose enough to
/// absorb tolerance-proportional error growth on the stiff classics and
/// the (well-documented) phase drift of multistep methods on the
/// oscillatory entries, tight enough to catch a mis-wired tableau.
double accuracyThreshold(const GoldenProblem &G, const std::string &Solver) {
  if (G.Problem.Stiff)
    return 1e-2;
  // Adams/BDF families accumulate phase error on pure oscillators at
  // roughly 1e4 * RelTol; three correct digits is their honest best at
  // the probe tolerance, and regressions still land far above this.
  if (theoreticalOrder(Solver) == 0.0)
    return 1e-2;
  return 1e-4;
}

int cmdGolden(const Options &O) {
  const std::string Only = O.get("solver", "");
  int Failures = 0;

  std::printf("== golden-library end-state accuracy ==\n");
  for (const GoldenProblem &G : goldenLibrary()) {
    const std::vector<double> Reference = goldenEndReference(G);
    for (const std::string &Name : solverNames()) {
      if (!Only.empty() && Name != Only)
        continue;
      auto SolverOr = createSolver(Name);
      if (!SolverOr)
        fatalError(SolverOr.message());
      // Explicit fixed-step / embedded methods cannot finish the stiff
      // classics in a sane step budget; skip those pairings like the
      // accuracy benchmark does.
      if (G.Problem.Stiff && !(*SolverOr)->isImplicit()) {
        std::printf("  %-10s %-16s skipped (stiff)\n", Name.c_str(),
                    G.Name.c_str());
        continue;
      }
      SolverOptions Opts;
      Opts.RelTol = 1e-7;
      Opts.AbsTol = 1e-11;
      Opts.MaxSteps = 2000000;
      if (Name == "rk4") // Fixed step: spend the budget uniformly.
        Opts.InitialStep = (G.Problem.EndTime - G.Problem.StartTime) / 20000;
      std::vector<double> Y = G.Problem.InitialState;
      IntegrationResult Result =
          (*SolverOr)->integrate(*G.Problem.System, G.Problem.StartTime,
                                 G.Problem.EndTime, Y, Opts);
      const double Error =
          Result.ok() ? mixedRelativeError(Y, Reference)
                      : std::numeric_limits<double>::infinity();
      const bool Pass = Error <= accuracyThreshold(G, Name);
      std::printf("  %-10s %-16s error %-10.3g %s\n", Name.c_str(),
                  G.Name.c_str(), Error, Pass ? "ok" : "FAIL");
      if (!Pass)
        ++Failures;
    }
  }

  std::printf("\n== empirical convergence orders ==\n");
  for (const std::string &Name : solverNames()) {
    if (!Only.empty() && Name != Only)
      continue;
    if (theoreticalOrder(Name) == 0.0)
      continue;
    auto EstimatesOr = measureConvergenceOrders(Name);
    if (!EstimatesOr) {
      std::printf("  %-10s FAIL: %s\n", Name.c_str(),
                  EstimatesOr.message().c_str());
      ++Failures;
      continue;
    }
    for (const OrderEstimate &E : *EstimatesOr)
      std::printf("  %-10s %-16s measured %.2f (theory %.0f, %zu pts)\n",
                  Name.c_str(), E.Problem.c_str(), E.Measured,
                  E.Theoretical, E.PointsUsed);
    const double Median = medianMeasuredOrder(*EstimatesOr);
    const double Theory = theoreticalOrder(Name);
    const bool Pass = std::abs(Median - Theory) <= 0.4;
    std::printf("  %-10s median order %.2f vs theoretical %.0f -> %s\n",
                Name.c_str(), Median, Theory, Pass ? "ok" : "FAIL");
    if (!Pass)
      ++Failures;
  }
  std::printf("\n%s\n", Failures == 0 ? "golden: all checks passed"
                                      : "golden: FAILURES detected");
  return Failures == 0 ? 0 : 1;
}

/// Minimal JSON string escaper for the fuzz stats document.
std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

/// Writes a machine-readable fuzz-run summary (schema
/// psg-fuzz-stats-v1) for CI job summaries: cases tried/skipped,
/// every minimized divergence with its repro path, and whether the
/// time budget cut the run short.
void writeFuzzStats(const std::string &Path, const FuzzOptions &Opts,
                    const FuzzReport &Report) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    fatalError("cannot write fuzz stats to " + Path);
  std::fprintf(F,
               "{\n"
               "  \"schema\": \"psg-fuzz-stats-v1\",\n"
               "  \"seed\": %llu,\n"
               "  \"cases_requested\": %zu,\n"
               "  \"cases_run\": %zu,\n"
               "  \"cases_skipped\": %zu,\n"
               "  \"time_budget_s\": %g,\n"
               "  \"time_budget_exhausted\": %s,\n"
               "  \"compare_tol\": %g,\n"
               "  \"divergences\": [",
               (unsigned long long)Opts.Seed, Opts.Cases, Report.CasesRun,
               Report.CasesSkipped, Opts.TimeBudgetSeconds,
               Report.TimeBudgetExhausted ? "true" : "false",
               Opts.CompareTol);
  for (size_t I = 0; I < Report.Divergences.size(); ++I) {
    const FuzzDivergence &D = Report.Divergences[I];
    std::fprintf(F,
                 "%s\n    {\"seed\": %llu, \"simulator\": %s, "
                 "\"detail\": %s, \"repro\": %s}",
                 I ? "," : "", (unsigned long long)D.Case.Seed,
                 jsonQuote(D.Case.Simulator).c_str(),
                 jsonQuote(D.Case.Detail).c_str(),
                 jsonQuote(D.ReproPath).c_str());
  }
  std::fprintf(F, "%s]\n}\n", Report.Divergences.empty() ? "" : "\n  ");
  std::fclose(F);
}

int cmdFuzz(const Options &O) {
  FuzzOptions Opts;
  Opts.Seed = O.getUnsigned("seed", 1);
  Opts.Cases = O.getUnsigned("cases", 50);
  Opts.EndTime = O.getDouble("tend", 5.0);
  Opts.OutputSamples = O.getUnsigned("samples", 17);
  Opts.CompareTol = O.getDouble("compare-tol", Opts.CompareTol);
  Opts.TimeBudgetSeconds = O.getDouble("time-budget", 0.0);
  Opts.ReproDir = O.get("repro-dir", "");

  FuzzReport Report = runDifferentialFuzz(Opts);
  const std::string StatsPath = O.get("stats-json", "");
  if (!StatsPath.empty())
    writeFuzzStats(StatsPath, Opts, Report);
  std::printf("fuzz: %zu cases run, %zu skipped (no reference), "
              "%zu divergence(s)%s\n",
              Report.CasesRun, Report.CasesSkipped,
              Report.Divergences.size(),
              Report.TimeBudgetExhausted ? " [time budget hit]" : "");
  for (const FuzzDivergence &D : Report.Divergences) {
    std::printf("  seed %llu simulator %s: %s\n",
                (unsigned long long)D.Case.Seed, D.Case.Simulator.c_str(),
                D.Case.Detail.c_str());
    if (!D.ReproPath.empty())
      std::printf("    repro written: %s\n", D.ReproPath.c_str());
  }
  return Report.ok() ? 0 : 1;
}

int cmdReplay(const Options &O) {
  if (O.Positional.empty())
    return usage();
  auto CaseOr = loadCaseFile(O.Positional[0]);
  if (!CaseOr)
    return checkError(CaseOr.message());
  const double CompareTol = O.getDouble("compare-tol", 5e-3);
  std::printf("replaying seed %llu (%s, [%g, %g], %zu samples)\n",
              (unsigned long long)CaseOr->Seed,
              CaseOr->Simulator.empty() ? "all simulators"
                                        : CaseOr->Simulator.c_str(),
              CaseOr->StartTime, CaseOr->EndTime, CaseOr->OutputSamples);
  Status S = replayCase(*CaseOr, CompareTol);
  if (S.ok()) {
    std::printf("replay: no divergence (fixed or tolerance-dependent)\n");
    return 0;
  }
  std::printf("replay: diverges: %s\n", S.message().c_str());
  return 1;
}

int cmdProperties(const Options &) {
  int Failures = 0;
  std::printf("== tolerance scaling ==\n");
  for (const GoldenProblem &G : goldenLibrary()) {
    if (!G.UsableForOrderProbe)
      continue; // Smooth closed-form problems give clean ladders.
    for (const char *Name : {"rkf45", "dopri5", "radau5", "lsoda"}) {
      auto LadderOr = checkToleranceScaling(Name, G);
      if (LadderOr)
        std::printf("  %-10s %-16s %.3g -> %.3g over %zu rungs  ok\n",
                    Name, G.Name.c_str(), LadderOr->Errors.front(),
                    LadderOr->Errors.back(), LadderOr->Errors.size());
      else {
        std::printf("  %-10s %-16s FAIL: %s\n", Name, G.Name.c_str(),
                    LadderOr.message().c_str());
        ++Failures;
      }
    }
  }

  std::printf("\n== warm/cold dispatch invariance ==\n");
  if (Status S = checkWarmColdInvarianceAllPersonalities(); S.ok())
    std::printf("  all personalities bit-exact across warm reruns and "
                "rebinds  ok\n");
  else {
    std::printf("  FAIL: %s\n", S.message().c_str());
    ++Failures;
  }
  std::printf("\n%s\n", Failures == 0 ? "properties: all checks passed"
                                      : "properties: FAILURES detected");
  return Failures == 0 ? 0 : 1;
}

/// The flags \p Command takes, in Options::check() form; null for an
/// unknown command.
const char *commandFlags(const std::string &Command) {
  if (Command == "golden")
    return "solver";
  if (Command == "fuzz")
    return "seed:uint cases:uint tend:pos samples:uint compare-tol:pos "
           "time-budget:real repro-dir stats-json";
  if (Command == "replay")
    return "compare-tol:pos";
  if (Command == "properties")
    return "";
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Command = Argv[1];
  Options O = Options::parse(Argc, Argv, 2);
  const char *Flags = commandFlags(Command);
  if (!Flags)
    return usage();
  if (Status S = O.check(Flags); !S)
    return checkError(S.message());
  if (Command == "golden")
    return cmdGolden(O);
  if (Command == "fuzz")
    return cmdFuzz(O);
  if (Command == "replay")
    return cmdReplay(O);
  if (Command == "properties")
    return cmdProperties(O);
  return usage();
}
