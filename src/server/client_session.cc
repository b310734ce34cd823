#include "src/server/client_session.h"

#include <algorithm>
#include <utility>

#include "src/base/data_object.h"
#include "src/components/modules.h"
#include "src/observability/observability.h"
#include "src/robustness/salvage.h"
#include "src/server/flow_trace.h"

namespace atk {
namespace server {
namespace {

using observability::Counter;
using observability::MetricsRegistry;

uint64_t Backoff(uint64_t base, uint64_t cap, int retries) {
  uint64_t ticks = base;
  for (int i = 0; i < retries && ticks < cap; ++i) {
    ticks *= 2;
  }
  return std::min(ticks, cap);
}

// Parses §5 bytes into a TextData replica; nullptr when the bytes do not
// parse clean or the root is not text.
std::unique_ptr<TextData> ParseReplica(const std::string& bytes) {
  ReadContext context;
  std::unique_ptr<DataObject> root = ReadDocument(bytes, &context);
  if (root == nullptr || !context.ok()) {
    return nullptr;
  }
  if (ObjectCast<TextData>(root.get()) == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<TextData>(static_cast<TextData*>(root.release()));
}

}  // namespace

ClientSession::ClientSession(std::string client_name, std::string doc_name,
                             SimulatedLink* link)
    : ClientSession(std::move(client_name), std::move(doc_name), link, Config()) {}

ClientSession::ClientSession(std::string client_name, std::string doc_name,
                             SimulatedLink* link, Config config)
    : client_name_(std::move(client_name)),
      doc_name_(std::move(doc_name)),
      link_(link),
      config_(config),
      channel_(link, LinkDir::kClientToServer, config.channel) {
  // Snapshots parse through the loader; the text module must be declared
  // before the first resync regardless of which binary hosts the client.
  RegisterTextModule();
}

void ClientSession::Connect(uint64_t now) {
  // The channel resets *before* the hello goes out; the HelloAck then only
  // installs the session id.  Resetting on ack instead would race the
  // snapshot the server sends in the same burst (its seq would be forgotten
  // and every later update refused as out-of-order).
  ++epoch_;
  if (epoch_ > 1) {
    ++stats_.reconnects;
    static Counter& reconnects =
        MetricsRegistry::Instance().counter("client.session.reconnects");
    reconnects.Add(1);
  }
  channel_.Reset(0);
  state_ = State::kConnecting;
  synced_ = false;
  snap_req_pending_ = false;
  snap_req_retries_ = 0;
  applied_version_ = 0;
  hello_retries_ = 0;
  SendHello(now);
}

void ClientSession::SendHello(uint64_t now) {
  HelloPayload hello;
  hello.client = client_name_;
  hello.doc = doc_name_;
  hello.version = applied_version_;
  hello.epoch = epoch_;
  Frame frame;
  frame.type = FrameType::kHello;
  frame.payload = EncodeHello(hello);
  channel_.SendUnsequenced(std::move(frame), now);
  next_hello_at_ =
      now + Backoff(config_.hello_base_ticks, config_.hello_max_ticks, hello_retries_);
}

void ClientSession::SubmitEdit(EditOp op) {
  EditRecord pending;  // Version 0: the server assigns the real one.
  pending.op = std::move(op);
  if (observability::Enabled() && observability::FlowsEnabled()) {
    // The edit origin: allocate the flow id here (the keystroke), not at
    // flush time, so queueing delay inside the outbox is part of the
    // propagation latency.  The zero-length submit span marks the origin on
    // this session's track.
    pending.flow = observability::NextFlowId();
    pending.origin_ns = observability::MonotonicNanos();
    observability::TrackScope track(EnsureTrack());
    observability::FlowScope flow(pending.flow);
    observability::ScopedSpan span("client.edit.submit");
  }
  outbox_.push_back(std::move(pending));
}

uint32_t ClientSession::EnsureTrack() {
  if (!track_registered_) {
    trace_track_ =
        observability::Tracer::Instance().RegisterTrack("session." + client_name_);
    track_registered_ = true;
  }
  return trace_track_;
}

void ClientSession::Pump(uint64_t now) {
  observability::TrackScope track(observability::Enabled() ? EnsureTrack() : 0);
  // A severed link is the client's cue to re-dial: restore the transport,
  // then run the attach handshake from scratch under a fresh epoch.
  if (!link_->connected()) {
    link_->Restore();
    Connect(now);
    return;
  }
  if (state_ == State::kIdle) {
    return;
  }
  if (channel_.broken()) {
    // Retransmit deadline exhausted mid-session: full reconnect.
    Connect(now);
    return;
  }
  for (Frame& frame : channel_.Pump(now)) {
    switch (frame.type) {
      case FrameType::kHelloAck: {
        HelloAckPayload ack;
        if (!DecodeHelloAck(frame.payload, &ack)) {
          break;
        }
        channel_.set_session(ack.session);
        state_ = State::kAttached;
        break;
      }
      case FrameType::kUpdate:
        HandleUpdate(frame, now);
        break;
      case FrameType::kSnapshot:
        HandleSnapshot(frame, now);
        break;
      case FrameType::kEvict: {
        std::string reason;
        if (DecodeEvict(frame.payload, &reason)) {
          evict_reason_ = reason;
        }
        ++stats_.evictions;
        state_ = State::kEvicted;
        synced_ = false;
        if (config_.auto_reconnect) {
          Connect(now);
          return;
        }
        break;
      }
      default:
        break;
    }
  }
  // Hello retry with backoff; past the deadline the whole attach restarts
  // under a new epoch (the old one may be wedged server-side).  The deadline
  // runs until the first snapshot lands, not merely until HelloAck: a stale
  // delayed ack from a previous epoch can install a dead session id, and
  // only the epoch bump gets out of that hole.
  bool awaiting_sync = state_ == State::kConnecting ||
                       (state_ == State::kAttached && !synced_ && !degraded_);
  if (awaiting_sync && now >= next_hello_at_) {
    if (hello_retries_ >= config_.hello_max_retries) {
      Connect(now);
      return;
    }
    ++hello_retries_;
    ++stats_.hello_retries;
    static Counter& retries =
        MetricsRegistry::Instance().counter("client.hello.retries");
    retries.Add(1);
    SendHello(now);
  }
  // Snapshot-request retry: the previous request (or its answer) may have
  // been eaten by the link.
  if (snap_req_pending_ && state_ == State::kAttached && now >= next_snap_req_at_) {
    RequestSnapshot(now);
  }
  FlushOutbox(now);
  // An ack the edit frame (or a snapshot request) did not carry goes out
  // bare.  No ack is owed at the early returns above: each one either reset
  // the channel or never pumped it.
  channel_.SendOwedAck();
}

void ClientSession::RequestSnapshot(uint64_t now) {
  Frame frame;
  frame.type = FrameType::kSnapshotReq;
  frame.payload = EncodeSnapshotReq(applied_version_);
  channel_.SendReliable(std::move(frame), now);
  ++stats_.snapshot_requests;
  snap_req_pending_ = true;
  next_snap_req_at_ =
      now + Backoff(config_.snap_req_base_ticks, config_.snap_req_max_ticks,
                    snap_req_retries_);
  ++snap_req_retries_;
}

void ClientSession::HandleUpdate(const Frame& frame, uint64_t now) {
  EditPayload& update = update_;  // Reused: keeps its op vector's capacity.
  if (!DecodeEdit(frame.payload, &update)) {
    return;  // Damaged payload; the version gap triggers a resync below.
  }
  if (!synced_ || replica_ == nullptr) {
    // Updates racing ahead of the first snapshot: the snapshot that is still
    // in flight already contains them.
    return;
  }
  bool applied_any = false;
  for (const EditRecord& record : update.ops) {
    if (record.version <= applied_version_) {
      continue;  // Already held, e.g. by a snapshot from the same pump.
    }
    if (record.version != applied_version_ + 1) {
      // Version gap (an update was undecodable, or a snapshot we refused).
      if (!snap_req_pending_) {
        snap_req_retries_ = 0;
        RequestSnapshot(now);
      }
      break;
    }
    {
      // The terminal hop of the op's causal flow: the replica apply span on
      // this session's track (scopes are no-ops when record.flow is 0).
      observability::FlowScope flow(record.flow);
      observability::ScopedSpan span("client.update.apply");
      span.set_arg(channel_.session());
      if (record.op.kind == EditOp::Kind::kInsert) {
        replica_->InsertString(record.op.pos, record.op.text);
      } else {
        replica_->DeleteRange(record.op.pos, record.op.len);
      }
    }
    applied_version_ = record.version;
    ++stats_.updates_applied;
    applied_any = true;
    if (record.flow != 0) {
      // The last expected replica closes the flow into
      // server.propagation.latency_us.
      FlowTracker::Instance().ReplicaApplied(record.flow, observability::MonotonicNanos());
    }
  }
  if (applied_any) {
    // Fan-out latency as the replica saw it: ticks between the server
    // stamping the frame and this apply (retransmits and backoff included).
    static observability::Histogram& lag =
        MetricsRegistry::Instance().histogram("client.update.lag_ticks");
    lag.Observe(now >= update.sent_tick ? now - update.sent_tick : 0);
  }
}

void ClientSession::HandleSnapshot(const Frame& frame, uint64_t now) {
  SnapshotPayload snapshot;
  if (!DecodeSnapshot(frame.payload, &snapshot)) {
    // Envelope unusable — nothing to salvage a version from; ask again.
    snap_req_retries_ = 0;
    RequestSnapshot(now);
    return;
  }
  if (snapshot.version < applied_version_) {
    return;  // A stale snapshot from before updates we already hold.
  }
  bool checksum_ok =
      SnapshotSum(snapshot.version, snapshot.document) == snapshot.docsum;
  std::unique_ptr<TextData> replica;
  if (checksum_ok) {
    replica = ParseReplica(snapshot.document);
  }
  if (replica != nullptr) {
    InstallReplica(std::move(replica), snapshot.version, /*from_salvage=*/false);
    snap_req_pending_ = false;
    snap_req_retries_ = 0;
    return;
  }
  // Damaged at rest (docsum mismatch) or unparseable: salvage what arrived
  // so the user keeps a readable document, and keep asking for a clean one.
  SalvageReport report;
  std::unique_ptr<TextData> salvaged =
      ParseReplica(DataStreamSalvager().Salvage(snapshot.document, &report));
  if (salvaged != nullptr) {
    InstallReplica(std::move(salvaged), snapshot.version, /*from_salvage=*/true);
  }
  ++stats_.snapshots_salvaged;
  static Counter& salvaged_count =
      MetricsRegistry::Instance().counter("client.snapshot.salvaged");
  salvaged_count.Add(1);
  snap_req_retries_ = 0;
  RequestSnapshot(now);
}

void ClientSession::InstallReplica(std::unique_ptr<TextData> replica,
                                   uint64_t version, bool from_salvage) {
  replica_ = std::move(replica);
  // A salvaged snapshot's claimed version failed its integrity sum — adopting
  // it could poison the stale-snapshot guard (a corrupt huge version would
  // refuse every clean snapshot forever).  Versions restart from the next
  // clean install; updates are not applied while degraded anyway.
  applied_version_ = from_salvage ? 0 : version;
  synced_ = !from_salvage;
  degraded_ = from_salvage;
  if (!from_salvage) {
    ++stats_.snapshots_applied;
    hello_retries_ = 0;
  }
  if (replica_listener_) {
    replica_listener_(replica_.get());
  }
}

void ClientSession::FlushOutbox(uint64_t now) {
  if (state_ != State::kAttached || !synced_ || outbox_.empty()) {
    return;
  }
  // The whole outbox rides one frame.
  EditPayload payload;
  payload.sent_tick = now;
  payload.ops = std::move(outbox_);
  outbox_.clear();
  Frame frame;
  frame.type = FrameType::kEdit;
  frame.flow = FrameFlow(payload);
  frame.payload = EncodeEdit(payload);
  channel_.SendReliable(std::move(frame), now);
  stats_.edits_sent += payload.ops.size();
  static Counter& sent = MetricsRegistry::Instance().counter("client.edits.sent");
  sent.Add(payload.ops.size());
}

}  // namespace server
}  // namespace atk
