//===- examples/quickstart.cpp - psg in five minutes ----------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: define a reaction-based model, simulate a batch of
// perturbed parameterizations through the fine+coarse engine, and look at
// the results. Run from the build directory:
//
//   ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/BatchEngine.h"
#include "io/ResultsIo.h"
#include "rbm/CuratedModels.h"
#include "rbm/ModelIo.h"
#include "rbm/SyntheticGenerator.h"

#include <cstdio>

using namespace psg;

int main() {
  // 1. A model: the Brusselator limit-cycle oscillator, as a mass-action
  //    reaction network. (parseModelText / loadModelFile read the same
  //    thing from the BioSimWare-style text format.)
  ReactionNetwork Net = makeBrusselatorNetwork();
  std::printf("model '%s': %zu species, %zu reactions\n",
              Net.name().c_str(), Net.numSpecies(), Net.numReactions());
  std::printf("--- serialized form ---\n%s-----------------------\n",
              writeModelText(Net).c_str());

  // 2. A batch: 64 copies with +/-25%% log-uniform kinetic perturbations.
  Rng Generator(2024);
  std::vector<Parameterization> Batch;
  for (int I = 0; I < 64; ++I) {
    Parameterization P;
    P.InitialState = Net.initialState();
    for (size_t R = 0; R < Net.numReactions(); ++R)
      P.RateConstants.push_back(Net.reaction(R).RateConstant);
    perturbRateConstants(P.RateConstants, Generator);
    Batch.push_back(std::move(P));
  }

  // 3. The engine: fine+coarse strategy on the modeled Titan X, sampling
  //    every trajectory at 101 points over [0, 40].
  EngineOptions Opts;
  Opts.SimulatorName = "psg-engine";
  Opts.EndTime = 40.0;
  Opts.OutputSamples = 101;
  BatchEngine Engine(CostModel::paperSetup(), Opts);
  EngineReport Report = Engine.runParameterizations(Net, std::move(Batch));

  std::printf("ran %zu simulations (%zu failures)\n",
              Report.Outcomes.size(), Report.Failures);
  std::printf("operation counts: %llu steps, %llu rhs evaluations\n",
              (unsigned long long)Report.TotalStats.Steps,
              (unsigned long long)Report.TotalStats.RhsEvaluations);
  std::printf("modeled GPU time: %.3f ms integration, %.3f ms simulation\n",
              1e3 * Report.IntegrationTime.total(),
              1e3 * Report.SimulationTime.total());
  std::printf("host wall time:   %.3f ms (host pool, %s)\n",
              1e3 * Report.HostWallSeconds, "real numerics");

  // 4. Results: print the first trajectory's X column, and save the full
  //    CSV next to the binary.
  const Trajectory &T = Report.Outcomes[0].Dynamics;
  const unsigned X = *Net.findSpecies("X");
  std::printf("\nfirst simulation, species X (every 10th sample):\n");
  for (size_t S = 0; S < T.numSamples(); S += 10)
    std::printf("  t=%6.2f  X=%8.5f\n", T.time(S), T.value(S, X));

  CsvWriter Csv = trajectoryToCsv(T, &Net);
  if (Status S = Csv.saveToFile("quickstart_trajectory.csv"); !S)
    std::printf("could not save CSV: %s\n", S.message().c_str());
  else
    std::printf("\nwrote quickstart_trajectory.csv (%zu rows)\n",
                Csv.numRows());
  return 0;
}
