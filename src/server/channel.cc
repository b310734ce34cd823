#include "src/server/channel.h"

#include <algorithm>

#include "src/observability/memory.h"
#include "src/observability/observability.h"

namespace atk {
namespace server {
namespace {

using observability::Counter;
using observability::MetricsRegistry;

observability::MemoryAccount& ChannelMemAccount() {
  static observability::MemoryAccount& account =
      observability::MemoryAccountant::Instance().account("server.mem.channel");
  return account;
}

// Footprint of one queued frame: the struct plus its owned payload.  size()
// rather than capacity() so the figure survives the backlog -> in_flight_
// move (size is move-invariant, capacity is not), keeping charge/release
// pairing exact.
int64_t QueuedFrameBytes(const Frame& frame) {
  return static_cast<int64_t>(sizeof(Frame) + frame.payload.size());
}

uint64_t BackoffTicks(const Channel::Config& config, int retries) {
  uint64_t ticks = config.retransmit_base_ticks;
  for (int i = 0; i < retries && ticks < config.max_backoff_ticks; ++i) {
    ticks *= 2;
  }
  return std::min(ticks, config.max_backoff_ticks);
}

}  // namespace

Channel::Channel(SimulatedLink* link, LinkDir send_dir)
    : Channel(link, send_dir, Config()) {}

// The pre-attach hold is bounded: a chatty stale epoch must not grow it
// without limit while we wait for our hello-ack.
constexpr size_t kPreattachHoldCap = 32;

Channel::Channel(SimulatedLink* link, LinkDir send_dir, Config config)
    : link_(link), send_dir_(send_dir), config_(config),
      queue_mem_(ChannelMemAccount()) {}

void Channel::set_session(uint32_t session) {
  session_ = session;
  std::vector<Frame> held = std::move(preattach_hold_);
  preattach_hold_.clear();
  for (Frame& frame : held) {
    if (frame.session != session_) {
      ++stats_.stale_dropped;
      continue;
    }
    ProcessAck(frame.ack, link_->now());
    if (AcceptSequenced(frame)) {
      ++stats_.delivered;
      replayed_.push_back(std::move(frame));
    }
  }
}

void Channel::Transmit(const Frame& frame) {
  ack_owed_ = false;
  link_->Send(send_dir_, EncodeFrame(frame, last_in_),
              /*snapshot_frame=*/frame.type == FrameType::kSnapshot);
}

void Channel::SendReliable(Frame frame, uint64_t now) {
  frame.session = session_;
  frame.seq = next_seq_++;
  queue_mem_.Add(QueuedFrameBytes(frame));
  backlog_.push_back(std::move(frame));
  FillWindow(now);
}

void Channel::FillWindow(uint64_t now) {
  while (!backlog_.empty() && in_flight_.size() < config_.window) {
    Unacked entry;
    entry.frame = std::move(backlog_.front());
    backlog_.pop_front();
    entry.last_sent = now;
    Transmit(entry.frame);
    ++stats_.sent;
    in_flight_.push_back(std::move(entry));
  }
}

void Channel::SendUnsequenced(Frame frame, uint64_t /*now*/) {
  frame.session = session_;
  frame.seq = 0;
  Transmit(frame);
  ++stats_.sent;
}

void Channel::ProcessAck(uint64_t ack, uint64_t now) {
  while (!in_flight_.empty() && in_flight_.front().frame.seq <= ack) {
    const Unacked& entry = in_flight_.front();
    // Karn's rule: a retransmitted frame's ack cannot be attributed to one
    // send, so only clean first-transmission acks feed the RTT estimate.
    if (entry.retries == 0 && now >= entry.last_sent) {
      uint64_t sample = now - entry.last_sent;
      if (!rtt_valid_) {
        srtt_x8_ = sample << 3;
        rtt_valid_ = true;
      } else {
        srtt_x8_ += sample - (srtt_x8_ >> 3);
      }
    }
    queue_mem_.Add(-QueuedFrameBytes(entry.frame));
    in_flight_.pop_front();
    ++stats_.acked;
  }
}

bool Channel::AcceptSequenced(const Frame& frame) {
  if (frame.seq <= last_in_) {
    ++stats_.dup_dropped;
    static Counter& dup_rx =
        MetricsRegistry::Instance().counter("server.frames.dup_rejected");
    dup_rx.Add(1);
    ack_owed_ = true;  // Re-ack so the peer stops retransmitting.
    return false;
  }
  if (frame.seq != last_in_ + 1) {
    ++stats_.ooo_dropped;
    static Counter& ooo_rx =
        MetricsRegistry::Instance().counter("server.frames.ooo_rejected");
    ooo_rx.Add(1);
    ack_owed_ = true;  // Tell the peer where we really are.
    return false;
  }
  last_in_ = frame.seq;
  ack_owed_ = true;
  return true;
}

std::vector<Frame> Channel::Pump(uint64_t now) {
  // Frames accepted during set_session's hold replay head the batch: they
  // arrived before anything the decoder yields below.
  std::vector<Frame> delivered = std::move(replayed_);
  replayed_.clear();
  // Inbound: raw link bytes -> decoder -> ordered delivery.
  LinkDir recv_dir = send_dir_ == LinkDir::kClientToServer ? LinkDir::kServerToClient
                                                           : LinkDir::kClientToServer;
  for (std::string& bytes : link_->Receive(recv_dir)) {
    decoder_.Feed(bytes);
  }
  uint64_t corrupt_total = decoder_.corrupt_frames();
  if (corrupt_total > decoder_corrupt_seen_) {
    stats_.corrupt_dropped += corrupt_total - decoder_corrupt_seen_;
    static Counter& corrupt_rx =
        MetricsRegistry::Instance().counter("server.frames.crc_rejected");
    corrupt_rx.Add(corrupt_total - decoder_corrupt_seen_);
    decoder_corrupt_seen_ = corrupt_total;
  }
  Frame frame;
  while (decoder_.Poll(&frame)) {
    // Session filter.  Sequenced frames must match our session exactly (a
    // pre-attach channel accepting a stale epoch's data frame would advance
    // last_in_ and then dup-reject the real session's frames — acked but
    // never delivered, a silent divergence).  Pre-attach (session 0) a
    // sequenced frame might be the snapshot racing its own hello-ack through
    // the same burst, so it is held, not dropped: set_session replays it if
    // the ack names its session.  Unsequenced foreign frames are dropped
    // only once we have a session of our own — pre-attach they carry the
    // hello-ack that tells us who we are.
    bool foreign = frame.session != 0 && frame.session != session_;
    if (foreign && frame.seq != 0) {
      if (session_ == 0) {
        if (preattach_hold_.size() < kPreattachHoldCap) {
          preattach_hold_.push_back(std::move(frame));
          frame = Frame{};
        } else {
          ++stats_.stale_dropped;
        }
      } else {
        ++stats_.stale_dropped;
      }
      continue;
    }
    if (foreign && session_ != 0) {  // Unsequenced, and we know who we are.
      ++stats_.stale_dropped;
      continue;
    }
    ProcessAck(frame.ack, now);
    if (frame.seq == 0) {
      if (frame.type != FrameType::kAck) {
        ++stats_.delivered;
        delivered.push_back(std::move(frame));
        frame = Frame{};
      }
      continue;
    }
    if (!AcceptSequenced(frame)) {
      continue;
    }
    ++stats_.delivered;
    delivered.push_back(std::move(frame));
    frame = Frame{};
  }
  // Acks opened the window: promote backlog.
  FillWindow(now);
  // Outbound: retransmit what is due.
  for (Unacked& entry : in_flight_) {
    uint64_t due = entry.last_sent + BackoffTicks(config_, entry.retries);
    if (now < due) {
      continue;
    }
    if (entry.retries >= config_.max_retries) {
      broken_ = true;
      continue;
    }
    ++entry.retries;
    entry.last_sent = now;
    {
      // The retransmit is part of whatever edit flow the frame carries, so
      // a trace shows the retry (tagged with its attempt count) on the same
      // flow line as the origin and the replica applies.
      observability::FlowScope flow(entry.frame.flow);
      observability::ScopedSpan span("server.frame.retransmit");
      span.set_arg(static_cast<uint64_t>(entry.retries));
      Transmit(entry.frame);
    }
    ++stats_.retransmits;
    static Counter& retries = MetricsRegistry::Instance().counter("server.retries.frame");
    retries.Add(1);
  }
  // An ack still owed is left for SendOwedAck: the owner's own frames this
  // pump may carry it.
  return delivered;
}

void Channel::SendOwedAck() {
  if (!ack_owed_) {
    return;
  }
  Frame ack_frame;
  ack_frame.type = FrameType::kAck;
  ack_frame.session = session_;
  Transmit(ack_frame);
}

void Channel::Reset(uint32_t session) {
  session_ = session;
  next_seq_ = 1;
  last_in_ = 0;
  queue_mem_.Resize(0);
  in_flight_.clear();
  backlog_.clear();
  preattach_hold_.clear();
  replayed_.clear();
  decoder_ = FrameDecoder();
  decoder_corrupt_seen_ = 0;
  broken_ = false;
  ack_owed_ = false;
}

}  // namespace server
}  // namespace atk
