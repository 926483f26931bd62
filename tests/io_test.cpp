//===- tests/io_test.cpp - Result serialization tests ---------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "io/ResultsIo.h"

#include "rbm/CuratedModels.h"

#include <gtest/gtest.h>

using namespace psg;

TEST(ResultsIoTest, TrajectoryCsvUsesSpeciesNames) {
  ReactionNetwork Net = makeRobertsonNetwork();
  Trajectory T(3);
  double Row[3] = {1.0, 0.0, 0.0};
  T.addSample(0.0, Row);
  CsvWriter Csv = trajectoryToCsv(T, &Net);
  const std::string Text = Csv.toString();
  EXPECT_NE(Text.find("time,X,Y,Z"), std::string::npos);
  EXPECT_NE(Text.find("0,1,0,0"), std::string::npos);
}

TEST(ResultsIoTest, TrajectoryCsvFallsBackToGenericNames) {
  Trajectory T(2);
  double Row[2] = {0.5, 0.25};
  T.addSample(1.0, Row);
  const std::string Text = trajectoryToCsv(T).toString();
  EXPECT_NE(Text.find("time,y0,y1"), std::string::npos);
}

TEST(ResultsIoTest, Psa2dCsvEnumeratesGrid) {
  Psa2dResult R;
  R.Axis0Values = {1.0, 2.0};
  R.Axis1Values = {10.0, 20.0, 30.0};
  R.Metric = {0, 1, 2, 3, 4, 5};
  CsvWriter Csv = psa2dToCsv(R, "a", "b", "m");
  EXPECT_EQ(Csv.numRows(), 6u);
  const std::string Text = Csv.toString();
  EXPECT_NE(Text.find("a,b,m"), std::string::npos);
  EXPECT_NE(Text.find("2,30,5"), std::string::npos);
}

TEST(ResultsIoTest, SobolCsvHasOneRowPerFactor) {
  SobolResult R;
  R.Indices.push_back({"hkE2", 0.1, 0.01, 0.2, 0.02});
  R.Indices.push_back({"hkEGLC2", 0.3, 0.03, 0.4, 0.04});
  CsvWriter Csv = sobolToCsv(R);
  EXPECT_EQ(Csv.numRows(), 2u);
  EXPECT_NE(Csv.toString().find("hkEGLC2,0.300000"), std::string::npos);
}
