//===- examples/estimate_parameters.cpp - PE with FST-PSO -----------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
//
// Parameter estimation: hide some kinetic constants of a model, generate
// a target dynamics with the true values, then recover them with the
// fuzzy self-tuning PSO whose swarm is evaluated through the batched
// engine -- each optimizer iteration is one GPU batch. This is the shape
// of the metabolic case study's 78-parameter PE; here a 6-parameter
// Lotka-Volterra-style fit keeps the example interactive.
//
//===----------------------------------------------------------------------===//

#include "analysis/Fitness.h"
#include "rbm/CuratedModels.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace psg;

int main() {
  // The "unknown" model: a decay chain whose middle rate constants are to
  // be estimated.
  ReactionNetwork Net = makeDecayChainNetwork(/*Length=*/7,
                                              /*RateSpread=*/1.5);
  const std::vector<size_t> Unknown = {1, 2, 3, 4};
  std::printf("estimating %zu of %zu rate constants of '%s'\n",
              Unknown.size(), Net.numReactions(), Net.name().c_str());

  EngineOptions Opts;
  Opts.SimulatorName = "psg-engine";
  Opts.EndTime = 8.0;
  Opts.OutputSamples = 33;
  BatchEngine Engine(CostModel::paperSetup(), Opts);

  // Target dynamics from the true parameterization.
  Parameterization Truth;
  Truth.InitialState = Net.initialState();
  for (size_t R = 0; R < Net.numReactions(); ++R)
    Truth.RateConstants.push_back(Net.reaction(R).RateConstant);
  EngineReport TargetRun = Engine.runParameterizations(Net, {Truth});
  Trajectory Target = TargetRun.Outcomes[0].Dynamics;

  // Parameter space: one log axis per unknown constant.
  ParameterSpace Space(Net);
  std::vector<std::pair<double, double>> Bounds;
  for (size_t R : Unknown) {
    ParameterAxis Axis;
    Axis.Name = formatString("k%zu", R);
    Axis.Target = AxisTarget::RateConstant;
    Axis.Reactions = {R};
    Axis.Lo = 1e-2;
    Axis.Hi = 1e2;
    Axis.LogScale = true;
    Space.addAxis(Axis);
    // PSO searches log10-space directly for better conditioning.
    Bounds.emplace_back(-2.0, 2.0);
  }

  // Observe every species of the chain.
  std::vector<size_t> Observed;
  for (size_t SpeciesIdx = 0; SpeciesIdx < Net.numSpecies(); ++SpeciesIdx)
    Observed.push_back(SpeciesIdx);

  // PSO positions are log10(k); map them onto the axis values before
  // handing the swarm to the engine.
  BatchObjective EngineFit = makeTrajectoryFitObjective(
      Engine, Space, Target, Observed);
  BatchObjective Objective =
      [&EngineFit](const std::vector<std::vector<double>> &LogPositions) {
        std::vector<std::vector<double>> Points(LogPositions.size());
        for (size_t P = 0; P < LogPositions.size(); ++P) {
          Points[P].reserve(LogPositions[P].size());
          for (double L : LogPositions[P])
            Points[P].push_back(std::pow(10.0, L));
        }
        return EngineFit(Points);
      };

  PsoOptions Pso;
  Pso.SwarmSize = 24;
  Pso.Iterations = 30;
  Pso.FuzzySelfTuning = true;
  PsoResult Fit = runPso(Bounds, Objective, Pso);

  std::printf("\nconverged to fitness %.3e after %zu evaluations\n",
              Fit.BestFitness, Fit.Evaluations);
  std::printf("%-6s %12s %12s %9s\n", "param", "true", "estimated",
              "rel.err");
  for (size_t I = 0; I < Unknown.size(); ++I) {
    const double True = Net.reaction(Unknown[I]).RateConstant;
    const double Est = std::pow(10.0, Fit.BestPosition[I]);
    std::printf("%-6s %12.5f %12.5f %8.2f%%\n",
                formatString("k%zu", Unknown[I]).c_str(), True, Est,
                100.0 * std::abs(Est - True) / True);
  }
  std::printf("\nconvergence: ");
  for (size_t I = 0; I < Fit.ConvergenceHistory.size(); I += 5)
    std::printf("%.2e ", Fit.ConvergenceHistory[I]);
  std::printf("\n");
  return 0;
}
