//===- io/WireIo.cpp - Binary wire serialization --------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "io/WireIo.h"

#include <cstring>

namespace psg {

//===----------------------------------------------------------------------===//
// WireWriter
//===----------------------------------------------------------------------===//

void WireWriter::writeU8(uint8_t V) { Buf.push_back(V); }

void WireWriter::writeU16(uint16_t V) {
  Buf.push_back(static_cast<uint8_t>(V));
  Buf.push_back(static_cast<uint8_t>(V >> 8));
}

void WireWriter::writeU32(uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Buf.push_back(static_cast<uint8_t>(V >> Shift));
}

void WireWriter::writeU64(uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Buf.push_back(static_cast<uint8_t>(V >> Shift));
}

void WireWriter::writeF64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  writeU64(Bits);
}

void WireWriter::writeString(const std::string &S) {
  writeU32(static_cast<uint32_t>(S.size()));
  Buf.insert(Buf.end(), S.begin(), S.end());
}

void WireWriter::writeDoubles(const std::vector<double> &V) {
  writeU64(V.size());
  for (double D : V)
    writeF64(D);
}

//===----------------------------------------------------------------------===//
// WireReader
//===----------------------------------------------------------------------===//

bool WireReader::readU8(uint8_t &V) {
  if (remaining() < 1)
    return false;
  V = Data[Pos++];
  return true;
}

bool WireReader::readU16(uint16_t &V) {
  if (remaining() < 2)
    return false;
  V = static_cast<uint16_t>(Data[Pos] | (Data[Pos + 1] << 8));
  Pos += 2;
  return true;
}

bool WireReader::readU32(uint32_t &V) {
  if (remaining() < 4)
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
  Pos += 4;
  return true;
}

bool WireReader::readU64(uint64_t &V) {
  if (remaining() < 8)
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
  Pos += 8;
  return true;
}

bool WireReader::readF64(double &V) {
  uint64_t Bits;
  if (!readU64(Bits))
    return false;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool WireReader::readString(std::string &S, size_t MaxBytes) {
  uint32_t Len;
  if (!readU32(Len))
    return false;
  if (Len > MaxBytes || remaining() < Len)
    return false;
  S.assign(reinterpret_cast<const char *>(Data + Pos), Len);
  Pos += Len;
  return true;
}

bool WireReader::readDoubles(std::vector<double> &V, size_t MaxCount) {
  uint64_t Count;
  if (!readU64(Count))
    return false;
  if (Count > MaxCount || remaining() < Count * 8)
    return false;
  V.resize(static_cast<size_t>(Count));
  for (size_t I = 0; I < Count; ++I)
    readF64(V[I]); // Cannot fail: remaining() was checked above.
  return true;
}

//===----------------------------------------------------------------------===//
// CRC-32
//===----------------------------------------------------------------------===//

uint32_t crc32(const uint8_t *Data, size_t Size, uint32_t Crc) {
  // Reflected IEEE 802.3 polynomial, bitwise formulation. Frames are
  // small control messages or amortized over large payloads, so the
  // table-free variant is plenty fast and keeps the code dependency-free.
  Crc ^= 0xffffffffu;
  for (size_t I = 0; I < Size; ++I) {
    Crc ^= Data[I];
    for (int Bit = 0; Bit < 8; ++Bit)
      Crc = (Crc >> 1) ^ (0xedb88320u & (0u - (Crc & 1u)));
  }
  return Crc ^ 0xffffffffu;
}

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

void encodeStats(WireWriter &W, const IntegrationStats &S) {
  W.writeU64(S.Steps);
  W.writeU64(S.AcceptedSteps);
  W.writeU64(S.RejectedSteps);
  W.writeU64(S.RhsEvaluations);
  W.writeU64(S.JacobianEvaluations);
  W.writeU64(S.LuFactorizations);
  W.writeU64(S.ComplexLuFactorizations);
  W.writeU64(S.LuSolves);
  W.writeU64(S.NewtonIterations);
  W.writeU64(S.SolverSwitches);
}

bool decodeStats(WireReader &R, IntegrationStats &S) {
  return R.readU64(S.Steps) && R.readU64(S.AcceptedSteps) &&
         R.readU64(S.RejectedSteps) && R.readU64(S.RhsEvaluations) &&
         R.readU64(S.JacobianEvaluations) && R.readU64(S.LuFactorizations) &&
         R.readU64(S.ComplexLuFactorizations) && R.readU64(S.LuSolves) &&
         R.readU64(S.NewtonIterations) && R.readU64(S.SolverSwitches);
}

void encodeModeledTime(WireWriter &W, const ModeledTime &T) {
  W.writeF64(T.ComputeSeconds);
  W.writeF64(T.MemorySeconds);
  W.writeF64(T.LaunchSeconds);
  W.writeF64(T.HostSeconds);
}

bool decodeModeledTime(WireReader &R, ModeledTime &T) {
  return R.readF64(T.ComputeSeconds) && R.readF64(T.MemorySeconds) &&
         R.readF64(T.LaunchSeconds) && R.readF64(T.HostSeconds);
}

void encodeSolverOptions(WireWriter &W, const SolverOptions &O) {
  W.writeF64(O.AbsTol);
  W.writeF64(O.RelTol);
  W.writeF64(O.InitialStep);
  W.writeF64(O.MaxStep);
  W.writeU64(O.MaxSteps);
  W.writeF64(O.Safety);
  W.writeF64(O.MinScale);
  W.writeF64(O.MaxScale);
  W.writeU32(O.MaxNewtonIters);
  W.writeU8(O.EnableStiffnessDetection ? 1 : 0);
}

bool decodeSolverOptions(WireReader &R, SolverOptions &O) {
  uint8_t Stiff = 0;
  if (!(R.readF64(O.AbsTol) && R.readF64(O.RelTol) &&
        R.readF64(O.InitialStep) && R.readF64(O.MaxStep) &&
        R.readU64(O.MaxSteps) && R.readF64(O.Safety) &&
        R.readF64(O.MinScale) && R.readF64(O.MaxScale) &&
        R.readU32(O.MaxNewtonIters) && R.readU8(Stiff)))
    return false;
  O.EnableStiffnessDetection = Stiff != 0;
  return true;
}

void encodeTrajectory(WireWriter &W, const Trajectory &T) {
  const size_t Dim = T.dimension();
  const size_t Samples = T.numSamples();
  W.writeU64(Dim);
  W.writeU64(Samples);
  for (size_t S = 0; S < Samples; ++S)
    W.writeF64(T.time(S));
  for (size_t S = 0; S < Samples; ++S) {
    const double *Row = T.state(S);
    for (size_t V = 0; V < Dim; ++V)
      W.writeF64(Row[V]);
  }
}

bool decodeTrajectory(WireReader &R, Trajectory &T, const WireLimits &Limits) {
  uint64_t Dim, Samples;
  if (!R.readU64(Dim) || !R.readU64(Samples))
    return false;
  if (Dim > Limits.MaxVectorDoubles || Samples > Limits.MaxVectorDoubles)
    return false;
  // Total payload must fit in what remains (8 bytes per double); this
  // bounds the allocation below by the actual frame size.
  const uint64_t Doubles = Samples + Samples * Dim;
  if (Dim != 0 && Doubles / Dim < Samples) // Overflow guard.
    return false;
  if (R.remaining() < Doubles * 8)
    return false;
  std::vector<double> Times(static_cast<size_t>(Samples));
  for (double &V : Times)
    R.readF64(V);
  T = Trajectory(static_cast<size_t>(Dim));
  std::vector<double> Row(static_cast<size_t>(Dim));
  for (size_t S = 0; S < Samples; ++S) {
    for (double &V : Row)
      R.readF64(V);
    T.addSample(Times[S], Row.data());
  }
  return true;
}

void encodeOutcome(WireWriter &W, const SimulationOutcome &O) {
  W.writeU8(static_cast<uint8_t>(O.Result.Status));
  encodeStats(W, O.Result.Stats);
  W.writeF64(O.Result.FinalTime);
  W.writeF64(O.Result.LastStepSize);
  W.writeString(O.Result.Detail);
  W.writeString(O.SolverUsed);
  encodeTrajectory(W, O.Dynamics);
}

bool decodeOutcome(WireReader &R, SimulationOutcome &O,
                   const WireLimits &Limits) {
  uint8_t Status;
  if (!R.readU8(Status))
    return false;
  if (Status > static_cast<uint8_t>(IntegrationStatus::Aborted))
    return false;
  O.Result.Status = static_cast<IntegrationStatus>(Status);
  return decodeStats(R, O.Result.Stats) && R.readF64(O.Result.FinalTime) &&
         R.readF64(O.Result.LastStepSize) &&
         R.readString(O.Result.Detail, Limits.MaxStringBytes) &&
         R.readString(O.SolverUsed, Limits.MaxStringBytes) &&
         decodeTrajectory(R, O.Dynamics, Limits);
}

void encodeParamSets(WireWriter &W,
                     const std::vector<std::vector<double>> &Sets) {
  W.writeU64(Sets.size());
  for (const std::vector<double> &S : Sets)
    W.writeDoubles(S);
}

bool decodeParamSets(WireReader &R, std::vector<std::vector<double>> &Sets,
                     const WireLimits &Limits) {
  uint64_t Count;
  if (!R.readU64(Count))
    return false;
  if (Count > Limits.MaxBatchSimulations)
    return false;
  Sets.resize(static_cast<size_t>(Count));
  for (std::vector<double> &S : Sets)
    if (!R.readDoubles(S, Limits.MaxVectorDoubles))
      return false;
  return true;
}

} // namespace psg
