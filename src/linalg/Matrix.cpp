//===- linalg/Matrix.cpp --------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Matrix.h"

#include <atomic>
#include <cmath>

using namespace psg;

uint64_t psg::nextPatternEpoch() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

double psg::infinityNorm(const Matrix &M) {
  double Max = 0.0;
  for (size_t R = 0; R < M.rows(); ++R) {
    double RowSum = 0.0;
    const double *Row = M.rowData(R);
    for (size_t C = 0; C < M.cols(); ++C)
      RowSum += std::abs(Row[C]);
    Max = std::max(Max, RowSum);
  }
  return Max;
}

double psg::frobeniusNorm(const Matrix &M) {
  double Sum = 0.0;
  for (size_t R = 0; R < M.rows(); ++R) {
    const double *Row = M.rowData(R);
    for (size_t C = 0; C < M.cols(); ++C)
      Sum += Row[C] * Row[C];
  }
  return std::sqrt(Sum);
}
