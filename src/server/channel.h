// Reliable frame channel: sequence numbers, cumulative acks, go-back-N
// retransmission with exponential backoff and a deadline (PR 6).
//
// One Channel is one endpoint's half of a connection over a SimulatedLink.
// Reliability model:
//
//   * every reliable frame carries the next per-direction sequence number;
//   * the receiver accepts only the next in-order sequence — duplicates and
//     out-of-order frames are counted and dropped (go-back-N keeps the
//     protocol state machine trivial, which is what you want when every
//     frame can be lost);
//   * every frame, reliable or not, piggybacks the cumulative ack (highest
//     in-order sequence received); when data was accepted but none of the
//     owner's frames carried the ack by the end of its pump, SendOwedAck
//     emits a pure kAck (the piggybacked ack of RFC 1122 §4.2.3.2: the
//     server calls it after its update flush, the client after its outbox
//     flush, so an update or edit frame replaces the bare ack);
//   * unacked frames retransmit after `retransmit_base_ticks`, doubling per
//     attempt (capped), until `max_retries` — then the channel declares
//     itself broken and the owner must reconnect (client) or evict (server).
//
// The channel never blocks and owns no thread: Pump(now) is called from the
// owner's pump with the link's tick clock.

#ifndef ATK_SRC_SERVER_CHANNEL_H_
#define ATK_SRC_SERVER_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/observability/memory.h"
#include "src/server/frame.h"
#include "src/server/transport_sim.h"

namespace atk {
namespace server {

class Channel {
 public:
  struct Config {
    size_t window = 32;                 // Max unacked frames in flight.
    uint64_t retransmit_base_ticks = 4; // First retry after this many ticks.
    uint64_t max_backoff_ticks = 64;    // Backoff cap.
    int max_retries = 6;                // Then the channel is broken.
  };

  struct Stats {
    uint64_t sent = 0;
    uint64_t retransmits = 0;
    uint64_t acked = 0;
    uint64_t delivered = 0;
    uint64_t dup_dropped = 0;     // Already-seen sequence numbers.
    uint64_t ooo_dropped = 0;     // Sequence gaps (go-back-N refuses them).
    uint64_t stale_dropped = 0;   // Wrong session id (a previous epoch).
    uint64_t corrupt_dropped = 0; // CRC failures surfaced by the decoder.
  };

  Channel(SimulatedLink* link, LinkDir send_dir);
  Channel(SimulatedLink* link, LinkDir send_dir, Config config);

  // Stamps outgoing frames; inbound frames from other sessions are dropped
  // (stale epochs after a reconnect).  Installing a session replays any
  // sequenced frames that arrived in the same burst as the hello-ack (they
  // were held, not droppable: pre-attach we cannot yet tell the new session
  // from a stale one) — they surface from the next Pump.
  void set_session(uint32_t session);
  uint32_t session() const { return session_; }

  // Queues a reliable (sequenced, retransmitted-until-acked) frame.  The
  // frame's seq/ack/session fields are assigned here.  Frames beyond the
  // window wait in the backlog until acks open it.
  void SendReliable(Frame frame, uint64_t now);

  // Fire-and-forget (seq 0): hellos before a session exists, best-effort
  // eviction notices.
  void SendUnsequenced(Frame frame, uint64_t now);

  // One pump turn: drains the link's inbound bytes through the decoder,
  // processes acks, retransmits what is due.  Returns the frames to deliver
  // to the layer above, in order.  Sends no pure ack: one owed after this
  // call waits for SendOwedAck.
  std::vector<Frame> Pump(uint64_t now);

  // Sends a pure kAck when data was accepted (or a duplicate or gap needs
  // re-acking) and no frame has carried the ack since.  The owner calls it
  // once at the end of its pump, after its own sends.
  void SendOwedAck();

  // True once a frame exhausted its retries: the peer is unreachable.
  bool broken() const { return broken_; }

  // Frames queued but not yet acked (in flight + backlog): the send-queue
  // depth the server's backpressure policy watches.
  size_t pending() const { return in_flight_.size() + backlog_.size(); }

  // Resets to a fresh epoch (after reconnect): sequence counters, queues,
  // decoder scraps, and the broken flag.
  void Reset(uint32_t session);

  const Stats& stats() const { return stats_; }
  uint64_t last_in_order() const { return last_in_; }

  // Smoothed round-trip time in link ticks, EWMA with gain 1/8 over samples
  // taken when a never-retransmitted frame is acked (Karn's rule: a retried
  // frame's ack is ambiguous and never sampled).  0 until the first sample.
  uint64_t rtt_estimate_ticks() const { return srtt_x8_ >> 3; }
  bool has_rtt() const { return rtt_valid_; }

 private:
  struct Unacked {
    Frame frame;
    uint64_t last_sent = 0;
    int retries = 0;
  };

  // Encodes `frame` with the current cumulative ack and sends it.
  void Transmit(const Frame& frame);
  void FillWindow(uint64_t now);
  void ProcessAck(uint64_t ack, uint64_t now);
  // Go-back-N acceptance: true when `frame` is the next in-order sequence
  // (advances last_in_); duplicates and gaps are counted and refused.
  bool AcceptSequenced(const Frame& frame);

  SimulatedLink* link_;
  LinkDir send_dir_;
  Config config_;
  uint32_t session_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t last_in_ = 0;  // Highest in-order seq received.
  std::deque<Unacked> in_flight_;
  std::deque<Frame> backlog_;
  FrameDecoder decoder_;
  // Sequenced frames that raced ahead of the hello-ack naming our session:
  // held until set_session decides whether they were ours all along.  A
  // vector, not a deque: it is empty nearly always, and an empty vector
  // allocates nothing where an empty deque holds a ~0.5 KB node.
  std::vector<Frame> preattach_hold_;
  // Held frames accepted at set_session time, surfaced by the next Pump.
  std::vector<Frame> replayed_;
  uint64_t decoder_corrupt_seen_ = 0;
  uint64_t srtt_x8_ = 0;  // RTT EWMA, scaled by 8 (integer arithmetic).
  bool rtt_valid_ = false;
  bool broken_ = false;
  bool ack_owed_ = false;
  Stats stats_;
  // Bytes held by the send/retransmit queues (in_flight_ + backlog_),
  // charged to `server.mem.channel`: frames charge on SendReliable, release
  // when acked or on Reset.  Moving between the queues is charge-neutral.
  observability::ScopedCharge queue_mem_;
};

}  // namespace server
}  // namespace atk

#endif  // ATK_SRC_SERVER_CHANNEL_H_
