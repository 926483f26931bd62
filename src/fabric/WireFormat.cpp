//===- fabric/WireFormat.cpp - Versioned fabric message schema ------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "fabric/WireFormat.h"

#include "support/Logging.h"
#include "support/StringUtils.h"

#include <cstdlib>

namespace psg {

const char *messageTypeName(MessageType Type) {
  switch (Type) {
  case MessageType::Hello:
    return "Hello";
  case MessageType::ShardGrant:
    return "ShardGrant";
  case MessageType::ShardAck:
    return "ShardAck";
  case MessageType::OutcomeBatch:
    return "OutcomeBatch";
  case MessageType::Heartbeat:
    return "Heartbeat";
  case MessageType::NodeGoodbye:
    return "NodeGoodbye";
  }
  return "Unknown";
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

/// The frame checksum: CRC-32 over the type byte, then the payload.
uint32_t frameCrc(uint8_t Type, const uint8_t *Payload, size_t Length) {
  return crc32(Payload, Length, crc32(&Type, 1));
}

} // namespace

std::vector<uint8_t> encodeFrame(MessageType Type,
                                 const std::vector<uint8_t> &Payload) {
  // The length field is a u32 and receivers cap it at
  // MaxFramePayloadBytes; silently truncating here would emit a frame
  // the peer rejects forever (the shard never resolves), so fail loudly
  // at the producer instead.
  if (Payload.size() > MaxFramePayloadBytes) {
    logMessage(LogLevel::Error,
               "fabric: %s payload of %zu bytes exceeds the %zu-byte frame "
               "cap; shrink the grant (GrantSize / OutputSamples)",
               messageTypeName(Type), Payload.size(), MaxFramePayloadBytes);
    std::abort();
  }
  WireWriter W;
  W.writeU32(FabricMagic);
  W.writeU16(FabricVersion);
  W.writeU8(static_cast<uint8_t>(Type));
  W.writeU8(0); // Reserved.
  W.writeU32(static_cast<uint32_t>(Payload.size()));
  W.writeU32(frameCrc(static_cast<uint8_t>(Type), Payload.data(),
                      Payload.size()));
  std::vector<uint8_t> Frame = W.take();
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

ErrorOr<FrameView> parseFrame(const std::vector<uint8_t> &Frame,
                              size_t MaxPayloadBytes) {
  WireReader R(Frame.data(), Frame.size());
  uint32_t Magic, Length, Crc;
  uint16_t Version;
  uint8_t Type, Reserved;
  if (!R.readU32(Magic) || !R.readU16(Version) || !R.readU8(Type) ||
      !R.readU8(Reserved) || !R.readU32(Length) || !R.readU32(Crc))
    return Status::failure(formatString(
        "fabric: truncated frame header (%zu bytes)", Frame.size()));
  if (Magic != FabricMagic)
    return Status::failure(
        formatString("fabric: bad frame magic 0x%08x", Magic));
  if (Version != FabricVersion)
    return Status::failure(formatString(
        "fabric: unsupported protocol version %u (want %u)",
        unsigned(Version), unsigned(FabricVersion)));
  if (Type < static_cast<uint8_t>(MessageType::Hello) ||
      Type > static_cast<uint8_t>(MessageType::NodeGoodbye))
    return Status::failure(
        formatString("fabric: unknown message type %u", unsigned(Type)));
  if (Length > MaxPayloadBytes)
    return Status::failure(formatString(
        "fabric: payload length %u exceeds cap %zu", Length, MaxPayloadBytes));
  if (Frame.size() != FrameHeaderBytes + Length)
    return Status::failure(formatString(
        "fabric: frame size %zu does not match header (%zu expected)",
        Frame.size(), FrameHeaderBytes + size_t(Length)));
  const uint8_t *Payload = Frame.data() + FrameHeaderBytes;
  if (frameCrc(Type, Payload, Length) != Crc)
    return Status::failure(
        formatString("fabric: CRC mismatch on %s frame",
                     messageTypeName(static_cast<MessageType>(Type))));
  FrameView V;
  V.Type = static_cast<MessageType>(Type);
  V.Payload = Payload;
  V.Size = Length;
  return V;
}

size_t framedSize(const uint8_t *Data, size_t Size) {
  if (Size < FrameHeaderBytes)
    return 0;
  WireReader R(Data, Size);
  uint32_t Magic, Length;
  uint16_t Version;
  uint8_t Type, Reserved;
  R.readU32(Magic);
  R.readU16(Version);
  R.readU8(Type);
  R.readU8(Reserved);
  R.readU32(Length);
  if (Magic != FabricMagic)
    return 0;
  // A declared payload past the protocol cap is indistinguishable from
  // garbage: report "unframeable" rather than ask the caller to buffer
  // up to 4 GiB before parseFrame gets a chance to reject it.
  if (Length > MaxFramePayloadBytes)
    return 0;
  return FrameHeaderBytes + Length;
}

//===----------------------------------------------------------------------===//
// Encoders
//===----------------------------------------------------------------------===//

std::vector<uint8_t> encodeHello(const HelloMsg &M) {
  WireWriter W;
  W.writeU32(M.Node);
  W.writeU64(M.ModelFingerprint);
  W.writeU32(M.Devices);
  W.writeU16(M.Protocol);
  return encodeFrame(MessageType::Hello, W.bytes());
}

std::vector<uint8_t> encodeShardGrant(const ShardGrantMsg &M) {
  WireWriter W;
  W.writeU64(M.ShardId);
  W.writeU64(M.Epoch);
  W.writeU64(M.First);
  W.writeU32(M.Attempt);
  W.writeU64(M.ChunkSize);
  W.writeF64(M.StartTime);
  W.writeF64(M.EndTime);
  W.writeU64(M.OutputSamples);
  encodeSolverOptions(W, M.Solver);
  W.writeU64(M.ModelFingerprint);
  encodeParamSets(W, M.RateConstantSets);
  encodeParamSets(W, M.InitialStates);
  return encodeFrame(MessageType::ShardGrant, W.bytes());
}

std::vector<uint8_t> encodeShardAck(const ShardAckMsg &M) {
  WireWriter W;
  W.writeU64(M.ShardId);
  W.writeU64(M.Epoch);
  W.writeU32(M.Node);
  return encodeFrame(MessageType::ShardAck, W.bytes());
}

std::vector<uint8_t> encodeOutcomeBatch(const OutcomeBatchMsg &M) {
  WireWriter W;
  W.writeU64(M.ShardId);
  W.writeU64(M.Epoch);
  W.writeU64(M.First);
  W.writeU32(M.Node);
  W.writeU64(M.Failures);
  encodeStats(W, M.Stats);
  encodeModeledTime(W, M.IntegrationTime);
  encodeModeledTime(W, M.SimulationTime);
  W.writeF64(M.HostWallSeconds);
  W.writeU64(M.Outcomes.size());
  for (const SimulationOutcome &O : M.Outcomes)
    encodeOutcome(W, O);
  return encodeFrame(MessageType::OutcomeBatch, W.bytes());
}

std::vector<uint8_t> encodeHeartbeat(const HeartbeatMsg &M) {
  WireWriter W;
  W.writeU32(M.Node);
  W.writeU64(M.Epoch);
  W.writeU32(M.QueuedShards);
  return encodeFrame(MessageType::Heartbeat, W.bytes());
}

std::vector<uint8_t> encodeNodeGoodbye(const NodeGoodbyeMsg &M) {
  WireWriter W;
  W.writeU32(M.Node);
  W.writeString(M.Reason);
  return encodeFrame(MessageType::NodeGoodbye, W.bytes());
}

//===----------------------------------------------------------------------===//
// Decoders
//===----------------------------------------------------------------------===//

static Status truncated(MessageType Type) {
  return Status::failure(
      formatString("fabric: truncated %s payload", messageTypeName(Type)));
}

static Status wrongType(MessageType Want, MessageType Got) {
  return Status::failure(formatString("fabric: expected %s frame, got %s",
                                      messageTypeName(Want),
                                      messageTypeName(Got)));
}

ErrorOr<HelloMsg> decodeHello(const FrameView &F) {
  if (F.Type != MessageType::Hello)
    return wrongType(MessageType::Hello, F.Type);
  WireReader R(F.Payload, F.Size);
  HelloMsg M;
  if (!(R.readU32(M.Node) && R.readU64(M.ModelFingerprint) &&
        R.readU32(M.Devices) && R.readU16(M.Protocol)))
    return truncated(F.Type);
  return M;
}

ErrorOr<ShardGrantMsg> decodeShardGrant(const FrameView &F,
                                        const WireLimits &Limits) {
  if (F.Type != MessageType::ShardGrant)
    return wrongType(MessageType::ShardGrant, F.Type);
  WireReader R(F.Payload, F.Size);
  ShardGrantMsg M;
  if (!(R.readU64(M.ShardId) && R.readU64(M.Epoch) && R.readU64(M.First) &&
        R.readU32(M.Attempt) && R.readU64(M.ChunkSize) &&
        R.readF64(M.StartTime) && R.readF64(M.EndTime) &&
        R.readU64(M.OutputSamples) && decodeSolverOptions(R, M.Solver) &&
        R.readU64(M.ModelFingerprint) &&
        decodeParamSets(R, M.RateConstantSets, Limits) &&
        decodeParamSets(R, M.InitialStates, Limits)))
    return truncated(F.Type);
  return M;
}

ErrorOr<ShardAckMsg> decodeShardAck(const FrameView &F) {
  if (F.Type != MessageType::ShardAck)
    return wrongType(MessageType::ShardAck, F.Type);
  WireReader R(F.Payload, F.Size);
  ShardAckMsg M;
  if (!(R.readU64(M.ShardId) && R.readU64(M.Epoch) && R.readU32(M.Node)))
    return truncated(F.Type);
  return M;
}

ErrorOr<OutcomeBatchMsg> decodeOutcomeBatch(const FrameView &F,
                                            const WireLimits &Limits) {
  if (F.Type != MessageType::OutcomeBatch)
    return wrongType(MessageType::OutcomeBatch, F.Type);
  WireReader R(F.Payload, F.Size);
  OutcomeBatchMsg M;
  uint64_t Count = 0;
  if (!(R.readU64(M.ShardId) && R.readU64(M.Epoch) && R.readU64(M.First) &&
        R.readU32(M.Node) && R.readU64(M.Failures) &&
        decodeStats(R, M.Stats) && decodeModeledTime(R, M.IntegrationTime) &&
        decodeModeledTime(R, M.SimulationTime) &&
        R.readF64(M.HostWallSeconds) && R.readU64(Count)))
    return truncated(F.Type);
  if (Count > Limits.MaxBatchSimulations)
    return Status::failure(formatString(
        "fabric: OutcomeBatch count %llu exceeds cap %zu",
        static_cast<unsigned long long>(Count), Limits.MaxBatchSimulations));
  M.Outcomes.resize(static_cast<size_t>(Count));
  for (SimulationOutcome &O : M.Outcomes)
    if (!decodeOutcome(R, O, Limits))
      return truncated(F.Type);
  return M;
}

ErrorOr<HeartbeatMsg> decodeHeartbeat(const FrameView &F) {
  if (F.Type != MessageType::Heartbeat)
    return wrongType(MessageType::Heartbeat, F.Type);
  WireReader R(F.Payload, F.Size);
  HeartbeatMsg M;
  if (!(R.readU32(M.Node) && R.readU64(M.Epoch) && R.readU32(M.QueuedShards)))
    return truncated(F.Type);
  return M;
}

ErrorOr<NodeGoodbyeMsg> decodeNodeGoodbye(const FrameView &F) {
  if (F.Type != MessageType::NodeGoodbye)
    return wrongType(MessageType::NodeGoodbye, F.Type);
  WireReader R(F.Payload, F.Size);
  NodeGoodbyeMsg M;
  WireLimits Limits;
  if (!(R.readU32(M.Node) && R.readString(M.Reason, Limits.MaxStringBytes)))
    return truncated(F.Type);
  return M;
}

//===----------------------------------------------------------------------===//
// Inspection
//===----------------------------------------------------------------------===//

FrameInspection inspectFrame(const std::vector<uint8_t> &Frame) {
  FrameInspection Info;
  ErrorOr<FrameView> Parsed = parseFrame(Frame);
  if (!Parsed.ok())
    return Info;
  const FrameView &F = Parsed.value();
  WireReader R(F.Payload, F.Size);
  Info.Type = F.Type;
  switch (F.Type) {
  case MessageType::ShardGrant: {
    uint64_t First;
    Info.Valid = R.readU64(Info.ShardId) && R.readU64(Info.Epoch) &&
                 R.readU64(First) && R.readU32(Info.Attempt);
    break;
  }
  case MessageType::ShardAck:
  case MessageType::OutcomeBatch:
    Info.Valid = R.readU64(Info.ShardId) && R.readU64(Info.Epoch);
    break;
  case MessageType::Heartbeat:
    Info.Valid = R.readU32(Info.Node) && R.readU64(Info.Epoch);
    break;
  case MessageType::Hello:
  case MessageType::NodeGoodbye:
    Info.Valid = R.readU32(Info.Node);
    break;
  }
  return Info;
}

} // namespace psg
