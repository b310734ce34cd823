#include "src/server/document_server.h"

#include <algorithm>
#include <utility>

#include "src/base/data_object.h"
#include "src/components/modules.h"
#include "src/observability/observability.h"
#include "src/server/flow_trace.h"

namespace atk {
namespace server {
namespace {

using observability::Counter;
using observability::Gauge;
using observability::Histogram;
using observability::MetricsRegistry;

Counter& EvictionCounter() {
  static Counter& evictions = MetricsRegistry::Instance().counter("server.sessions.evicted");
  return evictions;
}

// How often a pending eviction notice is re-sent to a client that has not
// re-attached yet.
constexpr uint64_t kEvictNoticeIntervalTicks = 32;

// The server's logical timeline in the trace (sessions get their own; see
// ClientSession::EnsureTrack).
uint32_t ServerTrack() {
  static uint32_t track = observability::Tracer::Instance().RegisterTrack("server");
  return track;
}

}  // namespace

DocumentServer::DocumentServer() : DocumentServer(Config()) {}

DocumentServer::DocumentServer(Config config) : config_(config) {
  // Hosted documents serialize/parse through the loader's text module.
  RegisterTextModule();
}

DocumentServer::~DocumentServer() {
  // Observers must detach before the documents they watch are destroyed.
  for (auto& [name, doc] : docs_) {
    (void)name;
    if (doc->data != nullptr && doc->fan_out != nullptr) {
      doc->data->RemoveObserver(doc->fan_out.get());
    }
  }
}

TextData* DocumentServer::HostDocument(const std::string& name,
                                       std::unique_ptr<TextData> doc) {
  auto hosted = std::make_unique<HostedDoc>();
  hosted->name = name;
  hosted->data = std::move(doc);
  hosted->fan_out = std::make_unique<FanOut>(this, hosted.get());
  hosted->data->AddObserver(hosted->fan_out.get());
  TextData* raw = hosted->data.get();
  auto it = docs_.find(name);
  if (it != docs_.end() && it->second->data != nullptr) {
    it->second->data->RemoveObserver(it->second->fan_out.get());
  }
  docs_[name] = std::move(hosted);
  return raw;
}

TextData* DocumentServer::document(const std::string& name) {
  HostedDoc* doc = FindDoc(name);
  return doc != nullptr ? doc->data.get() : nullptr;
}

uint64_t DocumentServer::version(const std::string& name) const {
  auto it = docs_.find(name);
  return it != docs_.end() ? it->second->version : 0;
}

std::vector<std::string> DocumentServer::document_names() const {
  std::vector<std::string> names;
  names.reserve(docs_.size());
  for (const auto& [name, doc] : docs_) {
    (void)doc;
    names.push_back(name);
  }
  return names;
}

DocumentServer::HostedDoc* DocumentServer::FindDoc(const std::string& name) {
  auto it = docs_.find(name);
  return it != docs_.end() ? it->second.get() : nullptr;
}

int DocumentServer::AttachLink(SimulatedLink* link) {
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->id = next_endpoint_id_++;
  endpoint->link = link;
  endpoint->channel =
      std::make_unique<Channel>(link, LinkDir::kServerToClient, config_.channel);
  const std::string prefix = "server.endpoint_" + std::to_string(endpoint->id) + ".";
  MetricsRegistry& registry = MetricsRegistry::Instance();
  endpoint->rtt_gauge = &registry.gauge(prefix + "rtt_ticks");
  endpoint->retransmit_gauge = &registry.gauge(prefix + "retransmits");
  endpoint->queue_gauge = &registry.gauge(prefix + "queue_depth");
  endpoint->epoch_gauge = &registry.gauge(prefix + "epoch");
  endpoints_.push_back(std::move(endpoint));
  return endpoints_.back()->id;
}

void DocumentServer::DetachLink(int endpoint_id) {
  for (auto it = endpoints_.begin(); it != endpoints_.end(); ++it) {
    if ((*it)->id == endpoint_id) {
      endpoints_.erase(it);
      return;
    }
  }
}

size_t DocumentServer::session_count() const {
  return static_cast<size_t>(
      std::count_if(endpoints_.begin(), endpoints_.end(),
                    [](const std::unique_ptr<Endpoint>& e) { return e->attached; }));
}

size_t DocumentServer::pending_evictions() const {
  return static_cast<size_t>(std::count_if(
      endpoints_.begin(), endpoints_.end(),
      [](const std::unique_ptr<Endpoint>& e) { return e->evict_pending; }));
}

size_t DocumentServer::pending_frames() const {
  size_t total = 0;
  for (const std::unique_ptr<Endpoint>& endpoint : endpoints_) {
    total += endpoint->channel->pending();
  }
  for (const auto& [name, doc] : docs_) {
    (void)name;
    total += doc->pending.empty() ? 0 : 1;
  }
  return total;
}

void DocumentServer::PumpOnce() {
  observability::TrackScope track(observability::Enabled() ? ServerTrack() : 0);
  ATK_TRACE_SPAN("server.endpoints.pump");
  // PumpEndpoint never attaches or detaches an endpoint, so the scan can
  // walk endpoints_ directly.
  for (const std::unique_ptr<Endpoint>& endpoint : endpoints_) {
    if (endpoint->link->HasDeliverable(LinkDir::kClientToServer) ||
        endpoint->channel->pending() > 0 ||
        (endpoint->evict_pending && endpoint->link->now() >= endpoint->next_evict_notice_at)) {
      PumpEndpoint(*endpoint);
    }
  }
  for (auto& [name, doc] : docs_) {
    (void)name;
    FlushUpdates(*doc);
  }
}

void DocumentServer::PumpEndpoint(Endpoint& endpoint) {
  uint64_t now = endpoint.link->now();
  std::vector<Frame> frames = endpoint.channel->Pump(now);
  static Counter& received = MetricsRegistry::Instance().counter("server.frames.received");
  received.Add(frames.size());
  for (const Frame& frame : frames) {
    switch (frame.type) {
      case FrameType::kHello:
        HandleHello(endpoint, frame);
        break;
      case FrameType::kEdit:
        HandleEdit(endpoint, frame);
        break;
      case FrameType::kSnapshotReq: {
        uint64_t have = 0;
        if (!DecodeSnapshotReq(frame.payload, &have)) {
          ++stats_.malformed_payloads;
          break;
        }
        HostedDoc* doc = FindDoc(endpoint.doc);
        if (endpoint.attached && doc != nullptr) {
          SendSnapshot(endpoint, *doc);
        }
        break;
      }
      case FrameType::kBye:
        endpoint.attached = false;
        endpoint.session = 0;
        endpoint.evict_pending = false;  // A clean goodbye needs no notices.
        endpoint.channel->Reset(0);
        break;
      default:
        break;  // kAck handled inside the channel; server ignores the rest.
    }
  }
  // Degradation policy, checked every pump: a session that exhausted its
  // retransmit deadline or overflowed its send queue is evicted.
  if (endpoint.attached) {
    if (endpoint.channel->broken()) {
      Evict(endpoint, "retransmit deadline exhausted (unreachable client)");
    } else if (endpoint.channel->pending() > config_.max_send_queue) {
      Evict(endpoint, "send queue overflow (backpressure limit " +
                          std::to_string(config_.max_send_queue) + ")");
    }
  }
  // Re-send a pending eviction notice: the original was best-effort and an
  // idle client that never heard it would keep a stale replica forever.
  if (endpoint.evict_pending && now >= endpoint.next_evict_notice_at) {
    Frame evict;
    evict.type = FrameType::kEvict;
    evict.payload = EncodeEvict(endpoint.evict_reason);
    endpoint.channel->SendUnsequenced(std::move(evict), now);
    endpoint.next_evict_notice_at = now + kEvictNoticeIntervalTicks;
  }
  // Publish per-session telemetry (four relaxed stores; the inspector's
  // server panel reads these from the metrics snapshot).
  endpoint.rtt_gauge->Set(static_cast<int64_t>(endpoint.channel->rtt_estimate_ticks()));
  endpoint.retransmit_gauge->Set(static_cast<int64_t>(endpoint.channel->stats().retransmits));
  endpoint.queue_gauge->Set(static_cast<int64_t>(endpoint.channel->pending()));
  endpoint.epoch_gauge->Set(static_cast<int64_t>(endpoint.epoch));
}

void DocumentServer::HandleHello(Endpoint& endpoint, const Frame& frame) {
  HelloPayload hello;
  if (!DecodeHello(frame.payload, &hello)) {
    ++stats_.malformed_payloads;
    return;
  }
  HostedDoc* doc = FindDoc(hello.doc);
  if (doc == nullptr) {
    // Unknown document: refuse the attach explicitly so the client stops
    // retrying into the void.
    Frame evict;
    evict.type = FrameType::kEvict;
    evict.payload = EncodeEvict("no such document: " + hello.doc);
    endpoint.channel->SendUnsequenced(std::move(evict), endpoint.link->now());
    return;
  }
  if (endpoint.attached && endpoint.client == hello.client &&
      endpoint.epoch == hello.epoch) {
    // A retried hello for the session we already built (our hello-ack was
    // lost): re-ack; the snapshot is already in the retransmit queue.
    Frame ack;
    ack.type = FrameType::kHelloAck;
    HelloAckPayload payload;
    payload.session = endpoint.session;
    payload.version = doc->version;
    ack.payload = EncodeHelloAck(payload);
    endpoint.channel->SendUnsequenced(std::move(ack), endpoint.link->now());
    return;
  }
  // The newcomer's snapshot below holds every op applied so far, so the
  // pending batch goes out first, to the other sessions only (a reconnect
  // abandons this endpoint's old session).
  bool reconnect = endpoint.attached;
  endpoint.attached = false;
  FlushUpdates(*doc);
  if (reconnect) {
    ++stats_.sessions_reconnected;
    static Counter& reconnects =
        MetricsRegistry::Instance().counter("server.sessions.reconnected");
    reconnects.Add(1);
  }
  // Fresh attach or reconnect: new session id, new channel epoch.
  endpoint.session = next_session_++;
  endpoint.epoch = hello.epoch;
  endpoint.client = hello.client;
  endpoint.doc = hello.doc;
  endpoint.attached = true;
  endpoint.evict_pending = false;
  endpoint.channel->Reset(endpoint.session);
  ++stats_.sessions_attached;
  static Counter& attached = MetricsRegistry::Instance().counter("server.sessions.attached");
  attached.Add(1);
  Frame ack;
  ack.type = FrameType::kHelloAck;
  HelloAckPayload payload;
  payload.session = endpoint.session;
  payload.version = doc->version;
  ack.payload = EncodeHelloAck(payload);
  endpoint.channel->SendUnsequenced(std::move(ack), endpoint.link->now());
  // The resync: the full document state as of now rides the reliable
  // channel; edits applied after this point fan out as updates on top.
  SendSnapshot(endpoint, *doc);
}

void DocumentServer::HandleEdit(Endpoint& endpoint, const Frame& frame) {
  if (!endpoint.attached) {
    // The client still believes in a session we tore down — the eviction
    // notice is best-effort and may have been lost.  Re-send it so the
    // client reconnects instead of editing into the void forever.
    Frame evict;
    evict.type = FrameType::kEvict;
    evict.payload = EncodeEvict("session no longer attached; reconnect");
    endpoint.channel->SendUnsequenced(std::move(evict), endpoint.link->now());
    return;
  }
  EditPayload edit;
  if (!DecodeEdit(frame.payload, &edit)) {
    ++stats_.malformed_payloads;
    static Counter& malformed =
        MetricsRegistry::Instance().counter("server.edits.malformed");
    malformed.Add(1);
    return;
  }
  HostedDoc* doc = FindDoc(endpoint.doc);
  if (doc == nullptr) {
    return;
  }
  static Counter& applied = MetricsRegistry::Instance().counter("server.edits.applied");
  for (EditRecord& record : edit.ops) {
    // The op's causal envelope: the apply span joins the flow the
    // originating client opened, and the observer stamps it on the batched
    // op so the replicas' applies join it too.
    observability::FlowScope flow_scope(record.flow);
    current_flow_ = record.flow;
    current_origin_ns_ = record.origin_ns;
    ATK_TRACE_SPAN("server.edit.apply");
    ++stats_.edits_applied;
    applied.Add(1);
    // Clamp against the authoritative state; the batched op is rebuilt from
    // the Change record, so every replica sees the *effective* op.
    int64_t pos = std::min(record.op.pos, doc->data->size());
    if (record.op.kind == EditOp::Kind::kInsert) {
      doc->data->InsertString(pos, record.op.text);
    } else {
      doc->data->DeleteRange(pos, record.op.len);
    }
  }
  // The observer (FanOut::ObservedChanged) has now bumped the version and
  // batched the ops for every attached session, this one included — the
  // originator's echo doubles as its apply confirmation.
  current_flow_ = 0;
  current_origin_ns_ = 0;
}

void DocumentServer::FanOut::ObservedChanged(Observable* changed, const Change& change) {
  (void)changed;
  if (change.kind == Change::Kind::kDestroyed) {
    return;
  }
  ++doc_->version;
  if (change.kind == Change::Kind::kInserted) {
    EditOp op;
    op.kind = EditOp::Kind::kInsert;
    op.pos = change.pos;
    op.len = change.added;
    op.text = doc_->data->GetText(change.pos, change.added);
    // An insert that carries an embedded-object anchor cannot be replayed
    // as text; fall back to a full-state fan-out.
    if (op.text.find(TextData::kObjectChar) == std::string::npos) {
      server_->QueueUpdate(*doc_, std::move(op));
      return;
    }
  } else if (change.kind == Change::Kind::kDeleted) {
    EditOp op;
    op.kind = EditOp::Kind::kDelete;
    op.pos = change.pos;
    op.len = change.removed;
    server_->QueueUpdate(*doc_, std::move(op));
    return;
  }
  // kModified / kReplaced / kAttributes / anchor inserts: not expressible
  // as one text op — resync everyone from the full state.
  server_->FanOutSnapshot(*doc_);
}

void DocumentServer::QueueUpdate(HostedDoc& doc, EditOp op) {
  EditRecord& record = doc.pending.emplace_back();
  record.version = doc.version;
  record.flow = current_flow_;
  record.origin_ns = current_origin_ns_;
  record.op = std::move(op);
}

void DocumentServer::FlushUpdates(HostedDoc& doc) {
  if (doc.pending.empty()) {
    return;
  }
  EditPayload payload;
  payload.ops = std::move(doc.pending);
  doc.pending.clear();
  // The fan-out spans, like any retransmit of the frames, join the flow the
  // frames are tagged with.
  const uint64_t frame_flow = FrameFlow(payload);
  observability::FlowScope flow_scope(frame_flow);
  ATK_TRACE_SPAN("server.fanout.update");
  static Histogram& latency =
      MetricsRegistry::Instance().histogram("server.fanout.latency_us");
  static Counter& fanned = MetricsRegistry::Instance().counter("server.updates.fanned_out");
  uint64_t start_ns = observability::MonotonicNanos();
  int recipients = 0;
  // Links tick in lockstep, so consecutive endpoints almost always share a
  // sent_tick and the encoded payload can be reused instead of rebuilt.
  std::string encoded;
  uint64_t encoded_tick = 0;
  for (std::unique_ptr<Endpoint>& endpoint : endpoints_) {
    if (!endpoint->attached || endpoint->doc != doc.name) {
      continue;
    }
    uint64_t now = endpoint->link->now();
    if (encoded.empty() || encoded_tick != now) {
      payload.sent_tick = now;
      encoded = EncodeEdit(payload);
      encoded_tick = now;
    }
    Frame frame;
    frame.type = FrameType::kUpdate;
    frame.flow = frame_flow;
    frame.payload = encoded;
    {
      // One span per recipient session: the trace shows which sessions the
      // batch fanned out to and what each enqueue cost.
      observability::ScopedSpan span("server.fanout.session");
      span.set_arg(endpoint->session);
      endpoint->channel->SendReliable(std::move(frame), now);
    }
    ++recipients;
    ++stats_.updates_fanned_out;
    fanned.Add(1);
  }
  latency.Observe((observability::MonotonicNanos() - start_ns) / 1000);
  // Each op's last replica apply closes its flow into
  // server.propagation.latency_us (see src/server/flow_trace.h).
  for (const EditRecord& record : payload.ops) {
    FlowTracker::Instance().BeginFlow(record.flow, record.origin_ns, recipients);
  }
}

void DocumentServer::FanOutSnapshot(HostedDoc& doc) {
  for (std::unique_ptr<Endpoint>& endpoint : endpoints_) {
    if (endpoint->attached && endpoint->doc == doc.name) {
      SendSnapshot(*endpoint, doc);
    }
  }
}

void DocumentServer::SendSnapshot(Endpoint& endpoint, HostedDoc& doc) {
  // Ops batched before the snapshot's version go out ahead of it, so every
  // session's reliable stream stays in version order.
  FlushUpdates(doc);
  ATK_TRACE_SPAN("server.snapshot.send");
  SnapshotPayload payload;
  payload.version = doc.version;
  payload.document = WriteDocument(*doc.data);
  payload.docsum = SnapshotSum(payload.version, payload.document);
  Frame frame;
  frame.type = FrameType::kSnapshot;
  frame.payload = EncodeSnapshot(payload);
  endpoint.channel->SendReliable(std::move(frame), endpoint.link->now());
  ++stats_.snapshots_sent;
  static Counter& snapshots = MetricsRegistry::Instance().counter("server.snapshots.sent");
  snapshots.Add(1);
}

void DocumentServer::Evict(Endpoint& endpoint, const std::string& reason) {
  Frame evict;
  evict.type = FrameType::kEvict;
  evict.payload = EncodeEvict(reason);
  // Best effort: the client may be unreachable — that is often why it is
  // being evicted.  Sent unsequenced so no retransmit state lingers.
  endpoint.channel->SendUnsequenced(std::move(evict), endpoint.link->now());
  diagnostics_.push_back(Diagnostic{
      StatusCode::kUnavailable, 0,
      "session " + std::to_string(endpoint.session) + " (" + endpoint.client +
          ") evicted: " + reason});
  endpoint.attached = false;
  endpoint.session = 0;
  endpoint.channel->Reset(0);
  // Keep nudging the client until it re-attaches: the notice above may be
  // eaten by the very faults that caused the eviction.
  endpoint.evict_pending = true;
  endpoint.evict_reason = reason;
  endpoint.next_evict_notice_at = endpoint.link->now() + kEvictNoticeIntervalTicks;
  ++stats_.sessions_evicted;
  EvictionCounter().Add(1);
}

}  // namespace server
}  // namespace atk
