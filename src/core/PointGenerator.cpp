//===- core/PointGenerator.cpp --------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "core/PointGenerator.h"

#include <algorithm>

using namespace psg;

PointGenerator::~PointGenerator() = default;

std::vector<double> psg::haltonPoint(uint64_t Index, size_t Dims) {
  static const unsigned Primes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29,
                                    31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                                    73, 79, 83, 89, 97, 101};
  assert(Index >= 1 && "Halton indices start at 1");
  assert(Dims <= sizeof(Primes) / sizeof(Primes[0]) &&
         "too many dimensions for the prime table");
  std::vector<double> Point(Dims);
  for (size_t D = 0; D < Dims; ++D) {
    const double Base = Primes[D];
    double Fraction = 1.0, Value = 0.0;
    uint64_t I = Index;
    while (I > 0) {
      Fraction /= Base;
      Value += Fraction * static_cast<double>(I % Primes[D]);
      I /= Primes[D];
    }
    Point[D] = Value;
  }
  return Point;
}

namespace {

/// Chunked gridSample: per-axis value lists plus an odometer with the
/// last axis fastest, so the emitted sequence is bit-identical to the
/// materialized cartesian product.
class GridGenerator final : public PointGenerator {
public:
  GridGenerator(const ParameterSpace &Space,
                std::vector<size_t> PointsPerAxis)
      : Space(Space), PointsPerAxis(std::move(PointsPerAxis)) {
    assert(this->PointsPerAxis.size() == Space.numAxes() &&
           "one resolution per axis required");
    Values.resize(Space.numAxes());
    Total = 1;
    for (size_t A = 0; A < Space.numAxes(); ++A) {
      Values[A] = Space.gridAxisValues(A, this->PointsPerAxis[A]);
      Total *= this->PointsPerAxis[A];
    }
    Index.assign(Values.size(), 0);
  }

  size_t totalPoints() const override { return Total; }

  size_t next(size_t MaxCount,
              std::vector<std::vector<double>> &Out) override {
    size_t Produced = 0;
    while (Produced < MaxCount && Emitted < Total) {
      std::vector<double> Point(Values.size());
      for (size_t A = 0; A < Values.size(); ++A)
        Point[A] = Values[A][Index[A]];
      Out.push_back(std::move(Point));
      for (size_t A = Values.size(); A-- > 0;) {
        if (++Index[A] < PointsPerAxis[A])
          break;
        Index[A] = 0;
      }
      ++Emitted;
      ++Produced;
    }
    return Produced;
  }

private:
  const ParameterSpace &Space;
  std::vector<size_t> PointsPerAxis;
  std::vector<std::vector<double>> Values;
  std::vector<size_t> Index;
  size_t Total = 1;
  size_t Emitted = 0;
};

/// The Saltelli matrix set, recomputed row-by-row from the Halton
/// sequence: block 0 is A, block 1 is B, blocks 2..K+1 are AB_i, and
/// (second order) blocks K+2..2K+1 are BA_i.
class SaltelliGenerator final : public PointGenerator {
public:
  SaltelliGenerator(const ParameterSpace &Space, size_t BaseSamples,
                    std::vector<double> Shift, bool SecondOrder)
      : Space(Space), N(BaseSamples), K(Space.numAxes()),
        Shift(std::move(Shift)), SecondOrder(SecondOrder) {
    assert(this->Shift.size() == 2 * K && "need one rotation per column");
  }

  size_t totalPoints() const override {
    return N * (SecondOrder ? 2 * K + 2 : K + 2);
  }

  size_t next(size_t MaxCount,
              std::vector<std::vector<double>> &Out) override {
    const size_t Total = totalPoints();
    size_t Produced = 0;
    while (Produced < MaxCount && Emitted < Total) {
      Out.push_back(pointAt(Emitted));
      ++Emitted;
      ++Produced;
    }
    return Produced;
  }

private:
  /// The rotated 2K-dimensional Halton row \p I split into the A and B
  /// unit-cube rows.
  void cubeRows(size_t I, std::vector<double> &RowA,
                std::vector<double> &RowB) const {
    std::vector<double> Row = haltonPoint(I + 1, 2 * K);
    for (size_t D = 0; D < 2 * K; ++D) {
      Row[D] += Shift[D];
      if (Row[D] >= 1.0)
        Row[D] -= 1.0;
    }
    RowA.assign(Row.begin(), Row.begin() + K);
    RowB.assign(Row.begin() + K, Row.end());
  }

  std::vector<double> pointAt(size_t Global) const {
    const size_t Block = Global / N;
    const size_t I = Global % N;
    std::vector<double> RowA, RowB;
    cubeRows(I, RowA, RowB);
    if (Block == 0)
      return Space.fromUnitCube(RowA);
    if (Block == 1)
      return Space.fromUnitCube(RowB);
    if (Block < K + 2) {
      const size_t D = Block - 2;
      RowA[D] = RowB[D];
      return Space.fromUnitCube(RowA);
    }
    const size_t D = Block - K - 2;
    RowB[D] = RowA[D];
    return Space.fromUnitCube(RowB);
  }

  const ParameterSpace &Space;
  size_t N;
  size_t K;
  std::vector<double> Shift;
  bool SecondOrder;
  size_t Emitted = 0;
};

/// Streams copies of a caller-owned point set.
class MaterializedGenerator final : public PointGenerator {
public:
  explicit MaterializedGenerator(
      const std::vector<std::vector<double>> &Points)
      : Points(Points) {}

  size_t totalPoints() const override { return Points.size(); }

  size_t next(size_t MaxCount,
              std::vector<std::vector<double>> &Out) override {
    const size_t Produced = std::min(MaxCount, Points.size() - Emitted);
    for (size_t I = 0; I < Produced; ++I)
      Out.push_back(Points[Emitted + I]);
    Emitted += Produced;
    return Produced;
  }

private:
  const std::vector<std::vector<double>> &Points;
  size_t Emitted = 0;
};

} // namespace

std::unique_ptr<PointGenerator>
psg::makeGridGenerator(const ParameterSpace &Space,
                       std::vector<size_t> PointsPerAxis) {
  return std::make_unique<GridGenerator>(Space, std::move(PointsPerAxis));
}

std::unique_ptr<PointGenerator>
psg::makeSaltelliGenerator(const ParameterSpace &Space, size_t BaseSamples,
                           std::vector<double> Shift, bool SecondOrder) {
  return std::make_unique<SaltelliGenerator>(Space, BaseSamples,
                                             std::move(Shift), SecondOrder);
}

std::unique_ptr<PointGenerator>
psg::makeMaterializedGenerator(const std::vector<std::vector<double>> &Points) {
  return std::make_unique<MaterializedGenerator>(Points);
}
