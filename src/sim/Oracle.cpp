//===- sim/Oracle.cpp -----------------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "sim/Oracle.h"

#include "support/StringUtils.h"

#include <bit>

using namespace psg;

namespace {

Status counterDiff(const char *Name, uint64_t A, uint64_t B) {
  return Status::failure(formatString("%s differs: %llu vs %llu", Name,
                                      (unsigned long long)A,
                                      (unsigned long long)B));
}

/// The ten IntegrationStats counts, named for difference messages.
const struct {
  const char *Name;
  uint64_t IntegrationStats::*Member;
} StatCounters[] = {
    {"steps", &IntegrationStats::Steps},
    {"accepted steps", &IntegrationStats::AcceptedSteps},
    {"rejected steps", &IntegrationStats::RejectedSteps},
    {"rhs evaluations", &IntegrationStats::RhsEvaluations},
    {"jacobian evaluations", &IntegrationStats::JacobianEvaluations},
    {"LU factorizations", &IntegrationStats::LuFactorizations},
    {"complex LU factorizations", &IntegrationStats::ComplexLuFactorizations},
    {"LU solves", &IntegrationStats::LuSolves},
    {"Newton iterations", &IntegrationStats::NewtonIterations},
    {"solver switches", &IntegrationStats::SolverSwitches},
};

Status compareStats(const IntegrationStats &A, const IntegrationStats &B) {
  for (const auto &C : StatCounters)
    if (A.*(C.Member) != B.*(C.Member))
      return counterDiff(C.Name, A.*(C.Member), B.*(C.Member));
  return Status::success();
}

/// FNV-1a 64 state; words are fed as little-endian bytes.
class Fnv1a {
public:
  explicit Fnv1a(uint64_t Seed) : Hash(Seed) {}

  void byte(uint8_t B) { Hash = (Hash ^ B) * 0x100000001b3ull; }
  void word(uint64_t W) {
    for (int Shift = 0; Shift < 64; Shift += 8)
      byte(static_cast<uint8_t>(W >> Shift));
  }
  void real(double D) { word(std::bit_cast<uint64_t>(D)); }
  void text(const std::string &S) {
    word(S.size());
    for (char C : S)
      byte(static_cast<uint8_t>(C));
  }
  uint64_t value() const { return Hash; }

private:
  uint64_t Hash;
};

} // namespace

Status psg::compareOutcomesBitExact(const SimulationOutcome &A,
                                    const SimulationOutcome &B) {
  if (A.SolverUsed != B.SolverUsed)
    return Status::failure("solver differs: '" + A.SolverUsed + "' vs '" +
                           B.SolverUsed + "'");
  if (A.Result.Status != B.Result.Status)
    return Status::failure(
        formatString("status differs: %s vs %s",
                     integrationStatusName(A.Result.Status),
                     integrationStatusName(B.Result.Status)));
  // Bitwise: warm paths may not perturb a single ulp.
  if (A.Result.FinalTime != B.Result.FinalTime)
    return Status::failure(formatString("final time differs: %.17g vs %.17g",
                                        A.Result.FinalTime,
                                        B.Result.FinalTime));
  if (A.Result.LastStepSize != B.Result.LastStepSize)
    return Status::failure(
        formatString("last step size differs: %.17g vs %.17g",
                     A.Result.LastStepSize, B.Result.LastStepSize));
  if (Status S = compareStats(A.Result.Stats, B.Result.Stats); !S)
    return S;
  if (A.Dynamics.numSamples() != B.Dynamics.numSamples() ||
      A.Dynamics.dimension() != B.Dynamics.dimension())
    return Status::failure(formatString(
        "trajectory shape differs: %zux%zu vs %zux%zu",
        A.Dynamics.numSamples(), A.Dynamics.dimension(),
        B.Dynamics.numSamples(), B.Dynamics.dimension()));
  for (size_t S = 0; S < A.Dynamics.numSamples(); ++S) {
    if (A.Dynamics.time(S) != B.Dynamics.time(S))
      return Status::failure(formatString(
          "sample %zu time differs: %.17g vs %.17g", S, A.Dynamics.time(S),
          B.Dynamics.time(S)));
    for (size_t V = 0; V < A.Dynamics.dimension(); ++V)
      if (A.Dynamics.value(S, V) != B.Dynamics.value(S, V))
        return Status::failure(formatString(
            "sample %zu var %zu differs: %.17g vs %.17g", S, V,
            A.Dynamics.value(S, V), B.Dynamics.value(S, V)));
  }
  return Status::success();
}

Status psg::compareBatchesBitExact(const BatchResult &A,
                                   const BatchResult &B) {
  if (A.Outcomes.size() != B.Outcomes.size())
    return Status::failure(formatString("batch size differs: %zu vs %zu",
                                        A.Outcomes.size(),
                                        B.Outcomes.size()));
  if (A.Failures != B.Failures)
    return counterDiff("failures", A.Failures, B.Failures);
  for (size_t I = 0; I < A.Outcomes.size(); ++I)
    if (Status S = compareOutcomesBitExact(A.Outcomes[I], B.Outcomes[I]); !S)
      return Status::failure(formatString("simulation %zu: ", I) +
                             S.message());
  return Status::success();
}

uint64_t psg::outcomeDigest(const std::vector<SimulationOutcome> &Outcomes,
                            uint64_t Digest) {
  Fnv1a H(Digest);
  for (const SimulationOutcome &O : Outcomes) {
    H.text(O.SolverUsed);
    H.word(static_cast<uint64_t>(O.Result.Status));
    H.real(O.Result.FinalTime);
    H.real(O.Result.LastStepSize);
    for (const auto &C : StatCounters)
      H.word(O.Result.Stats.*(C.Member));
    const Trajectory &T = O.Dynamics;
    H.word(T.numSamples());
    H.word(T.dimension());
    for (size_t Sample = 0; Sample < T.numSamples(); ++Sample) {
      H.real(T.time(Sample));
      for (size_t V = 0; V < T.dimension(); ++V)
        H.real(T.value(Sample, V));
    }
  }
  return H.value();
}
