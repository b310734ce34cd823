// Framed transport for the compound-document server (PR 6).
//
// The ROADMAP's millions-of-users direction needs N InteractionManager
// sessions talking to one document-server process over a byte link that can
// drop, duplicate, reorder and corrupt traffic.  This header defines the one
// wire unit both sides speak: a length-prefixed, CRC32-checksummed frame.
//
// Layout (little-endian):
//
//   offset size
//   0      4   magic "ATKF"
//   4      4   payload length N
//   8      1   frame type
//   9      1   flags (reserved, 0)
//   10     4   session id
//   14     8   sequence number (per-direction, 1-based; 0 = unsequenced)
//   22     8   cumulative ack (highest in-order seq received)
//   30     4   CRC32 (IEEE) over the payload
//   34     4   CRC32 (IEEE) over bytes [4, 34) — the header fields
//   38     N   payload
//
// Two CRCs on purpose.  The header CRC is checked as soon as 38 bytes are
// buffered, *before* the length prefix is trusted: with a single whole-frame
// CRC, one flipped bit in the length field leaves the decoder waiting
// forever for a phantom payload while every later frame silently feeds the
// void — the stream wedges until reconnect.  A header that checks out makes
// the length authentic, so a payload CRC failure can skip the exact frame
// and re-sync on the next byte.  Corrupted frames are counted, reported,
// and dropped — recovery is the retransmit layer's job
// (src/server/channel.h), not the codec's.

#ifndef ATK_SRC_SERVER_FRAME_H_
#define ATK_SRC_SERVER_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atk {
namespace server {

enum class FrameType : uint8_t {
  kHello = 1,        // client -> server: attach {client name, doc, version}
  kHelloAck = 2,     // server -> client: {session id, doc version}
  kEdit = 3,         // client -> server: the edit ops of one client pump
  kUpdate = 4,       // server -> client: the versioned ops of one server pump
  kSnapshotReq = 5,  // client -> server: full-state resync request
  kSnapshot = 6,     // server -> client: §5-format document snapshot
  kAck = 7,          // pure cumulative ack (no payload)
  kEvict = 8,        // server -> client: session evicted {reason}
  kBye = 9,          // client -> server: orderly detach
};

std::string_view FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kAck;
  uint32_t session = 0;
  uint64_t seq = 0;  // 0 = unsequenced (pure acks, hellos before attach).
  uint64_t ack = 0;
  // In-memory causal tag so a retransmit can be attributed to the edit flow
  // it carries (DESIGN.md §8).  Deliberately NOT wire-encoded: the 38-byte
  // header and its CRCs are untouched; the flow id travels in the payload
  // envelope (src/server/protocol.h) and is re-stamped here by the sender.
  uint64_t flow = 0;
  std::string payload;
};

inline constexpr size_t kFrameHeaderSize = 38;
inline constexpr uint32_t kFrameMagic = 0x464B5441u;  // "ATKF" little-endian.

// IEEE CRC32 (the Ethernet/zlib polynomial), table-driven.
uint32_t Crc32(std::string_view bytes, uint32_t seed = 0);

// Encodes `frame` into its wire bytes.
std::string EncodeFrame(const Frame& frame);

// Incremental decoder: feed arbitrary byte chunks, harvest whole frames.
// Bytes that fail the magic scan or the CRC check are skipped and counted —
// the decoder always makes progress and never throws away a valid frame that
// arrives after damage.
class FrameDecoder {
 public:
  // Appends raw link bytes.
  void Feed(std::string_view bytes);

  // Decodes at most one frame from the buffered bytes.  Returns false when
  // no complete valid frame is buffered (damaged bytes may be consumed).
  bool Poll(Frame* out);

  // Decodes every complete frame currently buffered.
  std::vector<Frame> Drain();

  // Frames discarded for CRC mismatch / bad magic since construction.
  uint64_t corrupt_frames() const { return corrupt_frames_; }
  // Bytes skipped while re-synchronizing on the magic.
  uint64_t skipped_bytes() const { return skipped_bytes_; }

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  void Compact();

  std::string buffer_;
  size_t consumed_ = 0;
  uint64_t corrupt_frames_ = 0;
  uint64_t skipped_bytes_ = 0;
};

}  // namespace server
}  // namespace atk

#endif  // ATK_SRC_SERVER_FRAME_H_
