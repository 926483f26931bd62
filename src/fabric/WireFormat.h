//===- fabric/WireFormat.h - Versioned fabric message schema ----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned message schema of the cross-node shard protocol and
/// its framing. Every frame is:
///
///   magic 'PSGF' (u32) | version (u16) | type (u8) | reserved (u8) |
///   payload length (u32) | CRC-32 of type and payload (u32) | payload
///
/// The CRC covers the type byte too: a frame whose type was corrupted
/// into another valid type is rejected, not handed to the wrong decoder.
///
/// Payloads are encoded with the io/WireIo codecs (little-endian,
/// doubles as bit patterns). parseFrame rejects bad magic, unknown
/// versions, truncated frames, and CRC mismatches with a descriptive
/// Status — a corrupted or short frame can never be half-decoded.
///
/// Shard-carrying payloads open with a common prefix
/// (ShardId u64, Epoch u64) so fault-injection scripts and the dedup
/// ledger can key on shard identity without a full decode
/// (see inspectFrame).
///
//===----------------------------------------------------------------------===//

#ifndef PSG_FABRIC_WIREFORMAT_H
#define PSG_FABRIC_WIREFORMAT_H

#include "fabric/Fabric.h"
#include "io/WireIo.h"
#include "ode/SolverOptions.h"
#include "sim/Simulator.h"
#include "support/Error.h"
#include "vgpu/CostModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace psg {

constexpr uint32_t FabricMagic = 0x46475350u; // "PSGF" little-endian.
constexpr uint16_t FabricVersion = 2;

enum class MessageType : uint8_t {
  Hello = 1,        ///< Worker announces itself / handshake reply.
  ShardGrant = 2,   ///< Coordinator hands a shard to a worker.
  ShardAck = 3,     ///< Worker confirms it adopted a grant.
  OutcomeBatch = 4, ///< Worker returns a completed shard's outcomes.
  Heartbeat = 5,    ///< Worker liveness signal.
  NodeGoodbye = 6,  ///< Orderly departure (either direction).
};

const char *messageTypeName(MessageType Type);

//===----------------------------------------------------------------------===//
// Message bodies
//===----------------------------------------------------------------------===//

/// Worker -> coordinator on attach; coordinator -> worker as the
/// handshake reply carrying the assigned node id.
struct HelloMsg {
  NodeId Node = 0;             ///< 0 from a worker that has no id yet.
  uint64_t ModelFingerprint = 0;
  uint32_t Devices = 1;        ///< Worker's local device count.
  uint16_t Protocol = FabricVersion;
};

/// Coordinator -> worker: one shard of the sweep with everything needed
/// to run it remotely. ShardId doubles as the shard's first global
/// simulation index (shards are contiguous cuts of the stream).
struct ShardGrantMsg {
  uint64_t ShardId = 0;
  uint64_t Epoch = 0;   ///< Owner-node incarnation this grant targets.
  uint64_t First = 0;   ///< First global simulation index (== ShardId).
  uint32_t Attempt = 0; ///< 0-based re-queue attempt.
  uint64_t ChunkSize = 0; ///< Sub-batch cut width the worker must use.
  double StartTime = 0.0;
  double EndTime = 0.0;
  uint64_t OutputSamples = 0;
  SolverOptions Solver;
  uint64_t ModelFingerprint = 0;
  std::vector<std::vector<double>> RateConstantSets;
  std::vector<std::vector<double>> InitialStates;
};

/// Worker -> coordinator: grant adopted (liveness + flow control aid).
struct ShardAckMsg {
  uint64_t ShardId = 0;
  uint64_t Epoch = 0;
  NodeId Node = 0;
};

/// Worker -> coordinator: a completed shard's serialized outcomes plus
/// the modeled-time telemetry the virtual-finish scheduler feeds on.
struct OutcomeBatchMsg {
  uint64_t ShardId = 0;
  uint64_t Epoch = 0;
  uint64_t First = 0;
  NodeId Node = 0;
  uint64_t Failures = 0;
  IntegrationStats Stats;
  ModeledTime IntegrationTime;
  ModeledTime SimulationTime;
  double HostWallSeconds = 0.0;
  std::vector<SimulationOutcome> Outcomes;
};

/// Worker -> coordinator liveness signal.
struct HeartbeatMsg {
  NodeId Node = 0;
  uint64_t Epoch = 0;
  uint32_t QueuedShards = 0; ///< Grants accepted but not yet returned.
};

/// Orderly shutdown notice.
struct NodeGoodbyeMsg {
  NodeId Node = 0;
  std::string Reason;
};

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

constexpr size_t FrameHeaderBytes = 16;

/// Hard cap on a frame's payload. Encoders refuse to produce a larger
/// frame and the receive paths refuse to buffer one, so a corrupt or
/// hostile length field can never drive multi-GiB allocations.
constexpr size_t MaxFramePayloadBytes = size_t(1) << 30;

/// A parsed frame: type plus a view into the payload bytes (borrowed
/// from the buffer handed to parseFrame).
struct FrameView {
  MessageType Type = MessageType::Hello;
  const uint8_t *Payload = nullptr;
  size_t Size = 0;
};

/// Wraps \p Payload in a framed message of \p Type.
std::vector<uint8_t> encodeFrame(MessageType Type,
                                 const std::vector<uint8_t> &Payload);

/// Validates magic/version/length/CRC and returns a payload view, or a
/// failure Status naming what was wrong (truncation, corruption, ...).
ErrorOr<FrameView> parseFrame(const std::vector<uint8_t> &Frame,
                              size_t MaxPayloadBytes = MaxFramePayloadBytes);

/// If \p Frame holds at least a complete header, returns the total
/// frame size (header + payload length field) without validating the
/// payload — the TCP receive path uses this to find frame boundaries.
/// Returns 0 when the header is incomplete, the magic is wrong, or the
/// declared payload exceeds MaxFramePayloadBytes (the stream can never
/// be trusted past such a header, so callers treat 0-with-a-full-header
/// as a poisoned peer).
size_t framedSize(const uint8_t *Data, size_t Size);

//===----------------------------------------------------------------------===//
// Per-type encode/decode (encode returns a complete frame)
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodeHello(const HelloMsg &M);
std::vector<uint8_t> encodeShardGrant(const ShardGrantMsg &M);
std::vector<uint8_t> encodeShardAck(const ShardAckMsg &M);
std::vector<uint8_t> encodeOutcomeBatch(const OutcomeBatchMsg &M);
std::vector<uint8_t> encodeHeartbeat(const HeartbeatMsg &M);
std::vector<uint8_t> encodeNodeGoodbye(const NodeGoodbyeMsg &M);

ErrorOr<HelloMsg> decodeHello(const FrameView &F);
ErrorOr<ShardGrantMsg> decodeShardGrant(const FrameView &F,
                                        const WireLimits &Limits = {});
ErrorOr<ShardAckMsg> decodeShardAck(const FrameView &F);
ErrorOr<OutcomeBatchMsg> decodeOutcomeBatch(const FrameView &F,
                                            const WireLimits &Limits = {});
ErrorOr<HeartbeatMsg> decodeHeartbeat(const FrameView &F);
ErrorOr<NodeGoodbyeMsg> decodeNodeGoodbye(const FrameView &F);

//===----------------------------------------------------------------------===//
// Cheap inspection for fault scripts
//===----------------------------------------------------------------------===//

/// Identity of a frame without a full payload decode: enough for a
/// deterministic fault script to key on message content (shard id,
/// attempt, type) rather than on wall-clock or thread interleaving.
struct FrameInspection {
  bool Valid = false;
  MessageType Type = MessageType::Hello;
  uint64_t ShardId = 0; ///< 0 unless a shard-carrying type.
  uint64_t Epoch = 0;   ///< 0 unless a shard-carrying type or Heartbeat.
  uint32_t Attempt = 0; ///< ShardGrant only.
  NodeId Node = 0;      ///< Hello/ShardAck/Heartbeat/Goodbye sender field.
};

FrameInspection inspectFrame(const std::vector<uint8_t> &Frame);

} // namespace psg

#endif // PSG_FABRIC_WIREFORMAT_H
