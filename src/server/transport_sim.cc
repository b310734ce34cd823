#include "src/server/transport_sim.h"

#include <algorithm>

#include "src/observability/observability.h"

namespace atk {
namespace server {
namespace {

using observability::Counter;
using observability::MetricsRegistry;

Counter& FaultCounter(TransportFaultKind kind) {
  static Counter& drops = MetricsRegistry::Instance().counter("server.frames.dropped");
  static Counter& dups = MetricsRegistry::Instance().counter("server.frames.duplicated");
  static Counter& corrupts = MetricsRegistry::Instance().counter("server.frames.corrupted");
  static Counter& payloads =
      MetricsRegistry::Instance().counter("server.frames.payload_corrupted");
  static Counter& delays = MetricsRegistry::Instance().counter("server.frames.delayed");
  static Counter& conns = MetricsRegistry::Instance().counter("server.conn.severed");
  static Counter& none = MetricsRegistry::Instance().counter("server.frames.clean");
  switch (kind) {
    case TransportFaultKind::kDrop:
      return drops;
    case TransportFaultKind::kDuplicate:
      return dups;
    case TransportFaultKind::kCorrupt:
      return corrupts;
    case TransportFaultKind::kPayloadCorrupt:
      return payloads;
    case TransportFaultKind::kDelay:
      return delays;
    case TransportFaultKind::kConnDrop:
      return conns;
    case TransportFaultKind::kDeliver:
      return none;
  }
  return none;
}

}  // namespace

void ResignFramePayload(std::string& encoded) {
  if (encoded.size() < kFrameHeaderSize) {
    return;
  }
  auto put_u32 = [&encoded](size_t at, uint32_t v) {
    encoded[at] = static_cast<char>(v & 0xFF);
    encoded[at + 1] = static_cast<char>((v >> 8) & 0xFF);
    encoded[at + 2] = static_cast<char>((v >> 16) & 0xFF);
    encoded[at + 3] = static_cast<char>((v >> 24) & 0xFF);
  };
  // Re-sign payload CRC, then the header CRC that covers it: the damage must
  // read as a faithfully transmitted frame whose contents rotted at rest.
  put_u32(30, Crc32(std::string_view(encoded).substr(kFrameHeaderSize)));
  put_u32(34, Crc32(std::string_view(encoded).substr(4, 30)));
}

void SimulatedLink::Send(LinkDir dir, std::string bytes, bool snapshot_frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_) {
    return;  // Severed: traffic goes nowhere.
  }
  static Counter& sent = MetricsRegistry::Instance().counter("server.frames.sent");
  sent.Add(1);
  TransportFaultInjector& injector = injectors_[static_cast<int>(dir)];
  TransportFault fault = injector.NextFate(snapshot_frame);
  FaultCounter(fault.kind).Add(1);
  auto enqueue = [&](std::string frame, uint64_t deliver_at) {
    InFlight in_flight;
    in_flight.bytes = std::move(frame);
    in_flight.deliver_at = deliver_at;
    in_flight.order = next_order_++;
    pipes_[static_cast<int>(dir)].push_back(std::move(in_flight));
  };
  switch (fault.kind) {
    case TransportFaultKind::kDrop:
      return;
    case TransportFaultKind::kDuplicate:
      enqueue(bytes, now_);
      enqueue(std::move(bytes), now_);
      return;
    case TransportFaultKind::kCorrupt:
      // Anywhere in the frame: header, CRC or payload — the decoder's CRC
      // check must discard it.
      injector.CorruptBytes(bytes, 0, bytes.size());
      enqueue(std::move(bytes), now_);
      return;
    case TransportFaultKind::kPayloadCorrupt:
      if (bytes.size() > kFrameHeaderSize) {
        injector.CorruptBytes(bytes, kFrameHeaderSize, bytes.size());
        ResignFramePayload(bytes);
      }
      enqueue(std::move(bytes), now_);
      return;
    case TransportFaultKind::kDelay:
      enqueue(std::move(bytes), now_ + static_cast<uint64_t>(fault.arg));
      return;
    case TransportFaultKind::kConnDrop:
      pipes_[0].clear();
      pipes_[1].clear();
      connected_ = false;
      ++sever_count_;
      return;
    case TransportFaultKind::kDeliver:
      enqueue(std::move(bytes), now_);
      return;
  }
}

void SimulatedLink::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  ++now_;
}

bool SimulatedLink::HasDeliverable(LinkDir dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const InFlight& frame : pipes_[static_cast<int>(dir)]) {
    if (frame.deliver_at <= now_) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> SimulatedLink::Receive(LinkDir dir) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<InFlight>& pipe = pipes_[static_cast<int>(dir)];
  std::vector<InFlight> ready;
  for (auto it = pipe.begin(); it != pipe.end();) {
    if (it->deliver_at <= now_) {
      ready.push_back(std::move(*it));
      it = pipe.erase(it);
    } else {
      ++it;
    }
  }
  // Delivery order: maturity tick, then submission order — a delayed frame
  // is overtaken by everything sent while it was held (the reorder case).
  // The pipe is in submission order, so without a delayed frame the ready
  // run is already sorted; sorting only then spares the merge buffer
  // stable_sort allocates.
  auto before = [](const InFlight& a, const InFlight& b) {
    if (a.deliver_at != b.deliver_at) {
      return a.deliver_at < b.deliver_at;
    }
    return a.order < b.order;
  };
  if (!std::is_sorted(ready.begin(), ready.end(), before)) {
    std::stable_sort(ready.begin(), ready.end(), before);
  }
  std::vector<std::string> out;
  out.reserve(ready.size());
  for (InFlight& frame : ready) {
    out.push_back(std::move(frame.bytes));
  }
  return out;
}

bool SimulatedLink::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connected_;
}

void SimulatedLink::Sever() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!connected_) {
    return;
  }
  pipes_[0].clear();
  pipes_[1].clear();
  connected_ = false;
  ++sever_count_;
}

void SimulatedLink::Restore() {
  std::lock_guard<std::mutex> lock(mu_);
  connected_ = true;
}

}  // namespace server
}  // namespace atk
