// The compound-document server: many sessions, one object space (PR 6).
//
// Hosts shared TextData documents and serves N client sessions over the
// framed transport.  The §2 observer mechanism is the fan-out spine: the
// server registers one observer per hosted document, and *any* mutation of
// the document — an edit applied for a session, or direct programmatic
// mutation — raises a Change that the observer turns into versioned ops.
// The ops a pump applies are the pump's delayed update: at the end of the
// pump every attached session gets them as one kUpdate frame (DESIGN.md §9,
// "Update batching").  Views on the client side are pure observers of the
// replica, so the whole pipeline is document -> observer -> wire -> replica
// -> observer -> view, with the delayed-update machinery untouched at both
// ends.
//
// Robustness is the spine, not an afterthought:
//   * edits arrive over reliable channels that survive drop / duplicate /
//     reorder / corruption (src/server/channel.h);
//   * a session whose send queue exceeds the backpressure limit, or whose
//     channel exhausts its retransmit deadline, is evicted with a
//     Diagnostic (server.sessions.evicted) — one slow client cannot wedge
//     the fan-out for everyone else;
//   * a reconnecting client resyncs through a §5-format snapshot carrying a
//     content checksum, salvageable when damaged at rest.

#ifndef ATK_SRC_SERVER_DOCUMENT_SERVER_H_
#define ATK_SRC_SERVER_DOCUMENT_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/class_system/observable.h"
#include "src/class_system/status.h"
#include "src/components/text/text_data.h"
#include "src/server/channel.h"
#include "src/server/protocol.h"
#include "src/server/transport_sim.h"

namespace atk {
namespace observability {
class Gauge;
}  // namespace observability

namespace server {

class DocumentServer {
 public:
  struct Config {
    Channel::Config channel;
    // Backpressure: a session whose unacked+backlogged frame count exceeds
    // this is evicted (one stuck client must not grow without bound).
    size_t max_send_queue = 256;
  };

  struct Stats {
    uint64_t edits_applied = 0;
    uint64_t updates_fanned_out = 0;  // kUpdate frames: one per session per flush.
    uint64_t snapshots_sent = 0;
    uint64_t sessions_attached = 0;
    uint64_t sessions_evicted = 0;
    uint64_t sessions_reconnected = 0;
    uint64_t malformed_payloads = 0;
  };

  DocumentServer();
  explicit DocumentServer(Config config);
  ~DocumentServer();

  // ---- Documents ----
  // Hosts `doc` under `name` (takes ownership, registers the fan-out
  // observer).  Replaces any previous document of that name.
  TextData* HostDocument(const std::string& name, std::unique_ptr<TextData> doc);
  TextData* document(const std::string& name);
  uint64_t version(const std::string& name) const;
  std::vector<std::string> document_names() const;

  // ---- Endpoints ----
  // Registers the server side of `link` with the pump; the client on the
  // other end attaches by sending kHello.  Returns the endpoint id.
  int AttachLink(SimulatedLink* link);
  void DetachLink(int endpoint_id);
  size_t session_count() const;  // Endpoints with an attached session.
  // Frames queued or unacked across all endpoints, plus one per document
  // whose update batch has not been flushed yet: zero means the server has
  // nothing left to deliver (quiescence detection must include this — an
  // update sitting out a retransmit backoff leaves the wire silent).
  size_t pending_frames() const;
  // Endpoints owing the client an eviction notice (the client has not yet
  // re-attached, so it may still hold a stale replica believing itself
  // synced).  Nonzero means the system is not quiescent even if the wire is
  // silent: the next notice retry is up to a full interval away.
  size_t pending_evictions() const;

  // ---- The pump ----
  // One readiness scan over the endpoints in attach order: every endpoint
  // with deliverable frames, pending retransmissions or an eviction notice
  // due is pumped; broken/overflowing sessions are evicted.
  // Then every document's update batch (the ops applied since the last
  // flush, this pump's and any direct mutation's) goes out, one kUpdate
  // frame per attached session.
  void PumpOnce();

  const Stats& stats() const { return stats_; }
  // Evictions and protocol damage, for logs and tests.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  struct HostedDoc;

  // Observer living on each hosted document: converts Change records into
  // batched ops (or snapshot fan-out for non-incremental changes).
  class FanOut : public Observer {
   public:
    FanOut(DocumentServer* server, HostedDoc* doc) : server_(server), doc_(doc) {}
    void ObservedChanged(Observable* changed, const Change& change) override;

   private:
    DocumentServer* server_;
    HostedDoc* doc_;
  };

  struct HostedDoc {
    std::string name;
    std::unique_ptr<TextData> data;
    uint64_t version = 0;
    std::unique_ptr<FanOut> fan_out;
    // Ops applied since the last flush, each with its own version and
    // causal envelope, in version order.
    std::vector<EditRecord> pending;
  };

  struct Endpoint {
    int id = 0;
    SimulatedLink* link = nullptr;
    std::unique_ptr<Channel> channel;
    uint32_t session = 0;     // 0 = no session attached yet.
    uint64_t epoch = 0;       // Client attach epoch (dedups retried hellos).
    std::string client;
    std::string doc;
    bool attached = false;
    // Eviction notices are unsequenced and the transport may eat them; an
    // idle evicted client would otherwise keep a stale replica forever and
    // never learn to reconnect.  While pending, the notice is re-sent
    // periodically until the client shows up with a fresh hello.
    bool evict_pending = false;
    uint64_t next_evict_notice_at = 0;
    std::string evict_reason;
    // Per-session telemetry published into MetricsRegistry as
    // server.endpoint_<id>.{rtt_ticks,retransmits,queue_depth,epoch}.
    // Cached here so each pump pays four relaxed stores, not map lookups.
    observability::Gauge* rtt_gauge = nullptr;
    observability::Gauge* retransmit_gauge = nullptr;
    observability::Gauge* queue_gauge = nullptr;
    observability::Gauge* epoch_gauge = nullptr;
  };

  void PumpEndpoint(Endpoint& endpoint);
  void HandleHello(Endpoint& endpoint, const Frame& frame);
  void HandleEdit(Endpoint& endpoint, const Frame& frame);
  void SendSnapshot(Endpoint& endpoint, HostedDoc& doc);
  void Evict(Endpoint& endpoint, const std::string& reason);
  // Appends an applied op to the document's batch.
  void QueueUpdate(HostedDoc& doc, EditOp op);
  // Sends the batch to every attached session of `doc`, one frame each.
  void FlushUpdates(HostedDoc& doc);
  void FanOutSnapshot(HostedDoc& doc);
  HostedDoc* FindDoc(const std::string& name);

  Config config_;
  std::map<std::string, std::unique_ptr<HostedDoc>> docs_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  int next_endpoint_id_ = 1;  // Never reused: ids name gauges and DetachLink.
  uint32_t next_session_ = 1;
  Stats stats_;
  std::vector<Diagnostic> diagnostics_;
  // The causal envelope of the op currently being applied (HandleEdit →
  // observer → QueueUpdate run on one stack, so the batched op carries the
  // inbound flow without threading it through Change records).
  uint64_t current_flow_ = 0;
  uint64_t current_origin_ns_ = 0;
};

}  // namespace server
}  // namespace atk

#endif  // ATK_SRC_SERVER_DOCUMENT_SERVER_H_
