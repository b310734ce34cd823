// Client side of a document-server session (PR 6).
//
// A ClientSession dials the server over a SimulatedLink, attaches to one
// named document, and maintains a local replica (a TextData) that converges
// to the server's authoritative copy.  The editing model is
// server-serialized: SubmitEdit never touches the replica — the edit rides
// the reliable channel to the server, is applied there, and comes back as a
// versioned op in a kUpdate frame (one frame per server pump, carrying the
// ops that pump applied) in channel order, so every replica applies the
// same ops in the same order and convergence is byte-exact without
// operational transforms.
//
// Recovery ladder, mildest first:
//   * lost/duplicated/reordered frames — absorbed by the reliable channel;
//   * hello lost — retried with exponential backoff under a retry deadline,
//     same epoch (the server re-acks instead of building a second session);
//   * version gap in updates — kSnapshotReq, backed off exponentially;
//   * snapshot damaged at rest (docsum mismatch / §5 parse failure) — the
//     DataStreamSalvager repairs what arrived into a degraded replica so the
//     user keeps a document to look at, and a fresh snapshot is requested
//     until a checksum-clean one lands;
//   * channel broken / connection severed / evicted — full reconnect: new
//     epoch, new session, state resynced from scratch via snapshot.

#ifndef ATK_SRC_SERVER_CLIENT_SESSION_H_
#define ATK_SRC_SERVER_CLIENT_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/components/text/text_data.h"
#include "src/server/channel.h"
#include "src/server/protocol.h"
#include "src/server/transport_sim.h"

namespace atk {
namespace server {

class ClientSession {
 public:
  struct Config {
    Channel::Config channel;
    uint64_t hello_base_ticks = 4;    // First hello retry after this long.
    uint64_t hello_max_ticks = 64;    // Hello backoff cap.
    int hello_max_retries = 8;        // Deadline: then a fresh epoch/reconnect.
    uint64_t snap_req_base_ticks = 8; // Snapshot-request retry backoff base.
    uint64_t snap_req_max_ticks = 128;
    bool auto_reconnect = true;       // Reconnect after evict / broken channel.
  };

  struct Stats {
    uint64_t edits_sent = 0;
    uint64_t updates_applied = 0;
    uint64_t snapshots_applied = 0;
    uint64_t snapshots_salvaged = 0;  // Damaged at rest; degraded replica built.
    uint64_t snapshot_requests = 0;
    uint64_t hello_retries = 0;
    uint64_t reconnects = 0;          // Fresh epochs after the first.
    uint64_t evictions = 0;
  };

  enum class State { kIdle, kConnecting, kAttached, kEvicted };

  ClientSession(std::string client_name, std::string doc_name,
                SimulatedLink* link);
  ClientSession(std::string client_name, std::string doc_name,
                SimulatedLink* link, Config config);

  // Starts (or restarts) the attach handshake with a fresh epoch.
  void Connect(uint64_t now);

  // Queues an edit for the server.  Safe in any state: the outbox drains
  // once the session is attached and synced.
  void SubmitEdit(EditOp op);

  // One turn of the client state machine: pump the channel, run retries and
  // reconnects, apply updates/snapshots, flush the outbox.
  void Pump(uint64_t now);

  State state() const { return state_; }
  bool attached() const { return state_ == State::kAttached; }
  // True once a snapshot has been applied and the replica tracks the stream.
  bool synced() const { return synced_; }
  // True while the replica came from a salvaged (damaged) snapshot.
  bool degraded() const { return degraded_; }

  // The local replica (nullptr before the first snapshot).  The pointer
  // changes on every resync; `set_replica_listener` observes the swaps.
  TextData* replica() { return replica_.get(); }
  const TextData* replica() const { return replica_.get(); }
  void set_replica_listener(std::function<void(TextData*)> listener) {
    replica_listener_ = std::move(listener);
  }

  uint64_t applied_version() const { return applied_version_; }
  uint32_t session_id() const { return channel_.session(); }
  uint64_t epoch() const { return epoch_; }
  const std::string& evict_reason() const { return evict_reason_; }
  const Stats& stats() const { return stats_; }
  const Channel& channel() const { return channel_; }

 private:
  void SendHello(uint64_t now);
  void RequestSnapshot(uint64_t now);
  void HandleUpdate(const Frame& frame, uint64_t now);
  void HandleSnapshot(const Frame& frame, uint64_t now);
  void InstallReplica(std::unique_ptr<TextData> replica, uint64_t version,
                      bool from_salvage);
  void FlushOutbox(uint64_t now);
  // Registers (once) and returns this session's trace track
  // ("session.<client name>"); 0 while tracing is disabled.
  uint32_t EnsureTrack();

  std::string client_name_;
  std::string doc_name_;
  SimulatedLink* link_;
  Config config_;
  Channel channel_;
  State state_ = State::kIdle;
  uint64_t epoch_ = 0;
  bool synced_ = false;
  bool degraded_ = false;
  std::unique_ptr<TextData> replica_;
  std::function<void(TextData*)> replica_listener_;
  uint64_t applied_version_ = 0;
  // Submitted edits with the causal envelope allocated at submit time (flow
  // id + origin clock; both 0 when flow tracing is off).
  std::vector<EditRecord> outbox_;
  // HandleUpdate's decode target, kept so its op vector is not regrown for
  // every update frame.
  EditPayload update_;
  uint32_t trace_track_ = 0;
  bool track_registered_ = false;
  // Hello retry state.
  uint64_t next_hello_at_ = 0;
  int hello_retries_ = 0;
  // Snapshot-request retry state.
  bool snap_req_pending_ = false;
  uint64_t next_snap_req_at_ = 0;
  int snap_req_retries_ = 0;
  std::string evict_reason_;
  Stats stats_;
};

}  // namespace server
}  // namespace atk

#endif  // ATK_SRC_SERVER_CLIENT_SESSION_H_
