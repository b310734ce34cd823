// Frame payload codecs for the document-server protocol (PR 6).
//
// Payloads are line-oriented ASCII (in the spirit of the §5 external
// representation: debuggable, mail-safe, versionable), with the edit text
// length-prefixed so arbitrary bytes survive:
//
//   Hello        "client <name>\ndoc <doc>\nversion <v>\n"
//   HelloAck     "session <id>\nversion <v>\n"
//   Edit/Update  1..N op records back to back, in version order:
//                "version <v>\n" ["tick <t>\n" (first record only)]
//                ["flow <f>\norigin <ns>\n"]
//                "op <i|d> <pos> <len>\n<len bytes>"
//                (`version` is 0 on client->server Edit: the server assigns;
//                the optional flow/origin pair is the record's causal-trace
//                envelope, present only when its origin allocated a flow id;
//                a one-record payload is byte-identical to the original
//                single-op format, and a single-op decoder rejects a
//                longer one as malformed)
//   Snapshot     "version <v>\ndocsum <s>\nbytes <n>\n" + n bytes of §5 document
//   SnapshotReq  "have <v>\n"
//   Evict        "reason <text>\n"
//
// Decoding is defensive: malformed payloads return false and the frame is
// counted and dropped — a payload that passed the CRC can still have been
// damaged at rest (TransportFaultKind::kPayloadCorrupt), and the protocol
// recovers through resync rather than trusting garbage.

#ifndef ATK_SRC_SERVER_PROTOCOL_H_
#define ATK_SRC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace atk {
namespace server {

struct EditOp {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  int64_t pos = 0;
  int64_t len = 0;    // kDelete: characters removed; kInsert: text length.
  std::string text;   // kInsert payload.
};

struct HelloPayload {
  std::string client;
  std::string doc;
  uint64_t version = 0;
  // Client attach-attempt epoch: bumped per (re)connect, *not* per retry of
  // the same hello, so the server can tell a retried hello (same epoch —
  // re-ack the existing session) from a genuine reconnect (new epoch — new
  // session, fresh resync).
  uint64_t epoch = 0;
};

struct HelloAckPayload {
  uint32_t session = 0;
  uint64_t version = 0;
};

// One edit op and its envelope.  An update frame carries the ops one server
// pump applied (DESIGN.md §9, "Update batching"), each with its own version
// so replay and gap detection stay version-for-version.
struct EditRecord {
  uint64_t version = 0;  // Server-assigned; 0 on submission.
  // Causal-trace envelope (DESIGN.md §8): the flow id allocated at the edit
  // origin and the origin's monotonic clock, carried end to end so the last
  // converged replica can close the propagation-latency histogram.  Both
  // are 0 (and the lines are omitted on the wire) when flow tracing is off.
  uint64_t flow = 0;
  uint64_t origin_ns = 0;
  EditOp op;
};

struct EditPayload {
  uint64_t sent_tick = 0;  // Server tick at fan-out (latency accounting).
  std::vector<EditRecord> ops;  // 1..N; decoding rejects an empty list.
};

struct SnapshotPayload {
  uint64_t version = 0;
  // SnapshotSum(version, document) computed *before* framing.  The frame
  // CRC detects wire damage; this one detects at-rest damage that was
  // faithfully transmitted (TransportFaultKind::kPayloadCorrupt) — on
  // mismatch the client salvages what it got and retries until a clean
  // snapshot arrives.  The version is inside the sum on purpose: a flipped
  // digit in the version line with intact document bytes would otherwise
  // install as clean under the wrong version and silently shift every
  // subsequent update.
  uint32_t docsum = 0;
  std::string document;  // §5 external representation bytes.
};

// The at-rest integrity sum for a snapshot: covers the version and the
// document bytes together.
uint32_t SnapshotSum(uint64_t version, const std::string& document);

std::string EncodeHello(const HelloPayload& hello);
bool DecodeHello(std::string_view payload, HelloPayload* out);

std::string EncodeHelloAck(const HelloAckPayload& ack);
bool DecodeHelloAck(std::string_view payload, HelloAckPayload* out);

// The flow id a frame carrying `edit` is tagged with (Frame::flow, DESIGN.md
// §8): its first traced op's, or 0 when no op is traced.
uint64_t FrameFlow(const EditPayload& edit);

std::string EncodeEdit(const EditPayload& edit);
bool DecodeEdit(std::string_view payload, EditPayload* out);

std::string EncodeSnapshot(const SnapshotPayload& snapshot);
bool DecodeSnapshot(std::string_view payload, SnapshotPayload* out);

std::string EncodeSnapshotReq(uint64_t have_version);
bool DecodeSnapshotReq(std::string_view payload, uint64_t* have_version);

std::string EncodeEvict(std::string_view reason);
bool DecodeEvict(std::string_view payload, std::string* reason);

}  // namespace server
}  // namespace atk

#endif  // ATK_SRC_SERVER_PROTOCOL_H_
