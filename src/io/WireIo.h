//===- io/WireIo.h - Binary wire serialization ------------------*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary serialization of simulation payloads for the
/// cross-node fabric: a bounds-checked writer/reader pair plus codecs
/// for the types that cross the wire (SimulationOutcome with its
/// trajectory, solver options, integration statistics, modeled times,
/// and per-simulation parameterization sets). Doubles travel as their
/// IEEE-754 bit patterns, so a round trip reproduces every value
/// bit-for-bit — the property the distributed bit-exactness oracle
/// rests on. Every decode is bounds-checked against the payload and
/// against explicit size caps, so truncated or corrupted frames are
/// rejected instead of over-allocating.
///
//===----------------------------------------------------------------------===//

#ifndef PSG_IO_WIREIO_H
#define PSG_IO_WIREIO_H

#include "ode/SolverOptions.h"
#include "sim/Simulator.h"
#include "support/Error.h"
#include "vgpu/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psg {

/// Sanity caps applied by every decoder: a corrupted length field must
/// fail fast instead of driving a multi-gigabyte allocation.
struct WireLimits {
  size_t MaxStringBytes = 1 << 16;       ///< Detail / name strings.
  size_t MaxVectorDoubles = 1 << 24;     ///< Any one double array.
  size_t MaxBatchSimulations = 1 << 22;  ///< Outcomes / param sets per batch.
};

/// Append-only little-endian byte writer.
class WireWriter {
public:
  void writeU8(uint8_t V);
  void writeU16(uint16_t V);
  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  /// The double's IEEE-754 bit pattern as a u64 (bit-exact round trip).
  void writeF64(double V);
  /// u32 byte count + raw bytes.
  void writeString(const std::string &S);
  /// u64 element count + one f64 per element.
  void writeDoubles(const std::vector<double> &V);

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  std::vector<uint8_t> Buf;
};

/// Bounds-checked little-endian reader over a borrowed byte range.
/// Every read returns false (without advancing) when the remaining
/// payload is too short — the truncation guard.
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool readU8(uint8_t &V);
  bool readU16(uint16_t &V);
  bool readU32(uint32_t &V);
  bool readU64(uint64_t &V);
  bool readF64(double &V);
  bool readString(std::string &S, size_t MaxBytes);
  bool readDoubles(std::vector<double> &V, size_t MaxCount);

  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// CRC-32 (IEEE 802.3 polynomial) over \p Size bytes, continuing from
/// \p Crc: crc32(B, N, crc32(A, M)) is the CRC of A followed by B. The
/// per-frame corruption check of the fabric framing layer.
uint32_t crc32(const uint8_t *Data, size_t Size, uint32_t Crc = 0);

//===----------------------------------------------------------------------===//
// Payload codecs. Encoders never fail; decoders return false on
// truncation or cap violations and may leave the output partially
// written (callers discard it on failure).
//===----------------------------------------------------------------------===//

void encodeStats(WireWriter &W, const IntegrationStats &S);
bool decodeStats(WireReader &R, IntegrationStats &S);

void encodeModeledTime(WireWriter &W, const ModeledTime &T);
bool decodeModeledTime(WireReader &R, ModeledTime &T);

void encodeSolverOptions(WireWriter &W, const SolverOptions &O);
bool decodeSolverOptions(WireReader &R, SolverOptions &O);

void encodeTrajectory(WireWriter &W, const Trajectory &T);
bool decodeTrajectory(WireReader &R, Trajectory &T, const WireLimits &Limits);

void encodeOutcome(WireWriter &W, const SimulationOutcome &O);
bool decodeOutcome(WireReader &R, SimulationOutcome &O,
                   const WireLimits &Limits);

/// Per-simulation parameter sets (rate-constant sets or initial states):
/// u64 set count, then one doubles vector per set. Ragged sets are
/// preserved (a short or empty set means "use the model defaults", the
/// BatchSpec contract).
void encodeParamSets(WireWriter &W,
                     const std::vector<std::vector<double>> &Sets);
bool decodeParamSets(WireReader &R, std::vector<std::vector<double>> &Sets,
                     const WireLimits &Limits);

} // namespace psg

#endif // PSG_IO_WIREIO_H
