//===- io/ResultsIo.cpp ---------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "io/ResultsIo.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace psg;

CsvWriter psg::trajectoryToCsv(const Trajectory &Traj,
                               const ReactionNetwork *Net) {
  std::vector<std::string> Header = {"time"};
  for (size_t Var = 0; Var < Traj.dimension(); ++Var)
    Header.push_back(Net ? Net->species(Var).Name
                         : formatString("y%zu", Var));
  CsvWriter Csv(std::move(Header));
  for (size_t S = 0; S < Traj.numSamples(); ++S) {
    std::vector<double> Row;
    Row.reserve(Traj.dimension() + 1);
    Row.push_back(Traj.time(S));
    const double *State = Traj.state(S);
    Row.insert(Row.end(), State, State + Traj.dimension());
    Csv.addRow(Row);
  }
  return Csv;
}

CsvWriter psg::psa2dToCsv(const Psa2dResult &Result, const std::string &Axis0,
                          const std::string &Axis1,
                          const std::string &MetricName) {
  CsvWriter Csv({Axis0, Axis1, MetricName});
  for (size_t I0 = 0; I0 < Result.Axis0Values.size(); ++I0)
    for (size_t I1 = 0; I1 < Result.Axis1Values.size(); ++I1)
      Csv.addRow({Result.Axis0Values[I0], Result.Axis1Values[I1],
                  Result.at(I0, I1)});
  return Csv;
}

CsvWriter psg::sobolToCsv(const SobolResult &Result) {
  CsvWriter Csv({"factor", "S1", "S1_conf", "ST", "ST_conf"});
  for (const SobolIndex &Index : Result.Indices)
    Csv.addRow({Index.Factor, formatString("%.6f", Index.S1),
                formatString("%.6f", Index.S1Conf),
                formatString("%.6f", Index.ST),
                formatString("%.6f", Index.STConf)});
  return Csv;
}

Status psg::saveMetricsJson(const MetricsSnapshot &Snapshot,
                            const std::string &Path) {
  const std::string Body = metricsSnapshotToJson(Snapshot);
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return Status::failure("cannot open '" + Path + "' for writing");
  const size_t Written = std::fwrite(Body.data(), 1, Body.size(), File);
  std::fclose(File);
  if (Written != Body.size())
    return Status::failure("short write to '" + Path + "'");
  return Status::success();
}
