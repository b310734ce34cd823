// Document-server tests (PR 6): frame codec, reliable channel, transport
// fault plans, the client/server protocol, and the 64-seed differential
// fault sweep asserting the §1 sharing contract — every replica byte-equal
// to the server's document once the system quiesces.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/data_object.h"
#include "src/observability/observability.h"
#include "src/observability/trace_export.h"
#include "src/robustness/fault_injector.h"
#include "src/server/channel.h"
#include "src/server/client_session.h"
#include "src/server/document_server.h"
#include "src/server/flow_trace.h"
#include "src/server/frame.h"
#include "src/server/protocol.h"
#include "src/server/transport_sim.h"
#include "src/workload/session_trace.h"

namespace atk {
namespace server {
namespace {

// ---------------------------------------------------------------- Frames --

TEST(Frame, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = FrameType::kEdit;
  frame.session = 7;
  frame.seq = 42;
  frame.ack = 41;
  frame.payload = "version 0\ntick 3\nop i 5 3\nabc";
  std::string wire = EncodeFrame(frame);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + frame.payload.size());

  FrameDecoder decoder;
  decoder.Feed(wire);
  Frame out;
  ASSERT_TRUE(decoder.Poll(&out));
  EXPECT_EQ(out.type, FrameType::kEdit);
  EXPECT_EQ(out.session, 7u);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.ack, 41u);
  EXPECT_EQ(out.payload, frame.payload);
  EXPECT_FALSE(decoder.Poll(&out));
}

TEST(Frame, DecoderReassemblesSplitFeeds) {
  Frame frame;
  frame.type = FrameType::kSnapshot;
  frame.seq = 1;
  frame.payload = std::string(1000, 'x');
  std::string wire = EncodeFrame(frame);

  FrameDecoder decoder;
  Frame out;
  for (size_t i = 0; i < wire.size(); i += 7) {
    decoder.Feed(wire.substr(i, 7));
  }
  ASSERT_TRUE(decoder.Poll(&out));
  EXPECT_EQ(out.payload, frame.payload);
}

TEST(Frame, DecoderResyncsPastGarbage) {
  Frame frame;
  frame.type = FrameType::kAck;
  frame.ack = 9;
  std::string wire = EncodeFrame(frame);

  FrameDecoder decoder;
  decoder.Feed("garbage bytes with an A inside");
  decoder.Feed(wire);
  Frame out;
  ASSERT_TRUE(decoder.Poll(&out));
  EXPECT_EQ(out.type, FrameType::kAck);
  EXPECT_EQ(out.ack, 9u);
  EXPECT_GT(decoder.skipped_bytes(), 0u);
}

TEST(Frame, DecoderRejectsCorruptedFrameThenRecovers) {
  Frame a;
  a.type = FrameType::kEdit;
  a.seq = 1;
  a.payload = "damaged in transit";
  std::string wire_a = EncodeFrame(a);
  wire_a[kFrameHeaderSize + 3] ^= 0x20;  // Flip one payload bit.

  Frame b;
  b.type = FrameType::kEdit;
  b.seq = 2;
  b.payload = "intact";

  FrameDecoder decoder;
  decoder.Feed(wire_a);
  decoder.Feed(EncodeFrame(b));
  Frame out;
  ASSERT_TRUE(decoder.Poll(&out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_EQ(out.payload, "intact");
  EXPECT_EQ(decoder.corrupt_frames(), 1u);
}

TEST(Frame, CorruptedLengthPrefixDoesNotWedgeTheDecoder) {
  // A flipped high byte in the length field once parked the decoder waiting
  // for a phantom multi-megabyte payload, silently swallowing every later
  // frame until reconnect.  The header CRC must catch it up front.
  Frame a;
  a.type = FrameType::kUpdate;
  a.seq = 5;
  a.payload = "version 6 tick 9\ni 0 2\nhi";
  std::string wire_a = EncodeFrame(a);
  wire_a[6] ^= 0x7F;  // Length now claims ~8MB.

  Frame b;
  b.type = FrameType::kUpdate;
  b.seq = 6;
  b.payload = "version 7 tick 10\nd 3 1\n";

  FrameDecoder decoder;
  decoder.Feed(wire_a);
  decoder.Feed(EncodeFrame(b));
  Frame out;
  ASSERT_TRUE(decoder.Poll(&out));
  EXPECT_EQ(out.seq, 6u);
  EXPECT_EQ(decoder.corrupt_frames(), 1u);
}

TEST(Frame, Crc32MatchesKnownVector) {
  // IEEE CRC32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
}

// The bytewise reference: one polynomial step per bit, no tables.
uint32_t ReferenceCrcStep(uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc;
}

TEST(Frame, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Covers the fold path's entry (64 bytes), every tail length it leaves
  // for the table loop, the 64-byte and 16-byte fold loops, and inputs that
  // start off any 16-byte boundary.
  constexpr size_t kMaxLength = 4096;
  std::string data(kMaxLength, '\0');
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (char& c : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(state >> 56);
  }
  alignas(16) static char buffer[kMaxLength + 16];
  for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x5A17C0DEu}) {
    // reference[n] is the CRC of the first n bytes under `seed`.
    std::vector<uint32_t> reference(kMaxLength + 1);
    uint32_t crc = ~seed;
    reference[0] = seed;
    for (size_t n = 1; n <= kMaxLength; ++n) {
      crc = ReferenceCrcStep(crc, static_cast<unsigned char>(data[n - 1]));
      reference[n] = ~crc;
    }
    for (size_t align = 0; align < 16; ++align) {
      std::memcpy(buffer + align, data.data(), kMaxLength);
      for (size_t n = 0; n <= kMaxLength; ++n) {
        uint32_t got = Crc32(std::string_view(buffer + align, n), seed);
        if (got != reference[n]) {
          ADD_FAILURE() << "seed " << seed << " alignment " << align << " length " << n
                        << ": got " << got << ", want " << reference[n];
          return;
        }
      }
    }
  }
}

TEST(Frame, Crc32ChainsThroughTheSeed) {
  std::string data(3000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + (i >> 3));
  }
  const std::string_view all(data);
  const uint32_t whole = Crc32(all);
  for (size_t split : {0, 1, 15, 63, 64, 65, 100, 1024, 2999, 3000}) {
    SCOPED_TRACE(split);
    EXPECT_EQ(Crc32(all.substr(split), Crc32(all.substr(0, split))), whole);
  }
}

// ----------------------------------------------------------- Fault plans --

TEST(TransportFaultPlan, FromSpecParsesEveryKey) {
  TransportFaultPlan plan = TransportFaultPlan::FromSpec(
      "seed=7,drop=4,dup=2,corrupt=3,payload=1,delay=5,conn=1,rate=0.25");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.drops, 4);
  EXPECT_EQ(plan.duplicates, 2);
  EXPECT_EQ(plan.corruptions, 3);
  EXPECT_EQ(plan.payload_corruptions, 1);
  EXPECT_EQ(plan.delays, 5);
  EXPECT_EQ(plan.conn_drops, 1);
  EXPECT_NEAR(plan.rate, 0.25, 1e-9);
}

TEST(TransportFaultPlan, FromSeedIsDeterministicAndBudgeted) {
  TransportFaultPlan a = TransportFaultPlan::FromSeed(11);
  TransportFaultPlan b = TransportFaultPlan::FromSeed(11);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_GE(a.drops, 2);
  EXPECT_LE(a.drops, 6);
  EXPECT_GE(a.rate, 0.02);
  EXPECT_LE(a.rate, 0.12);
}

TEST(TransportFaultInjector, BudgetsAreConsumedExactlyOnce) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 3;
  plan.drops = 2;
  plan.rate = 1.0;
  TransportFaultInjector injector(plan);
  int drops = 0;
  for (int i = 0; i < 100; ++i) {
    if (injector.NextFate(false).kind == TransportFaultKind::kDrop) {
      ++drops;
    }
  }
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(injector.injected(TransportFaultKind::kDrop), 2u);
}

TEST(TransportFaultInjector, PayloadCorruptionOnlyHitsSnapshotFrames) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 5;
  plan.payload_corruptions = 1;
  plan.rate = 1.0;
  TransportFaultInjector injector(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(injector.NextFate(false).kind, TransportFaultKind::kDeliver);
  }
  EXPECT_EQ(injector.NextFate(true).kind, TransportFaultKind::kPayloadCorrupt);
}

// -------------------------------------------------------------- Channels --

// Drives both channel halves over a link until `ticks` have elapsed.  Each
// half ends its turn with the owner's ack call, as ClientSession::Pump and
// DocumentServer::PumpOnce do.
std::vector<Frame> PumpBoth(Channel& client, Channel& server, SimulatedLink& link,
                            int ticks, std::vector<Frame>* to_client = nullptr) {
  std::vector<Frame> to_server;
  for (int i = 0; i < ticks; ++i) {
    for (Frame& f : client.Pump(link.now())) {
      if (to_client != nullptr) {
        to_client->push_back(std::move(f));
      }
    }
    client.SendOwedAck();
    for (Frame& f : server.Pump(link.now())) {
      to_server.push_back(std::move(f));
    }
    server.SendOwedAck();
    link.Tick();
  }
  return to_server;
}

TEST(Channel, OwedAckRidesTheOwnersNextFrame) {
  SimulatedLink link;
  Channel client(&link, LinkDir::kClientToServer);
  Channel server(&link, LinkDir::kServerToClient);
  Frame edit;
  edit.type = FrameType::kEdit;
  edit.payload = "edit";
  client.SendReliable(std::move(edit), link.now());
  link.Tick();
  ASSERT_EQ(server.Pump(link.now()).size(), 1u);
  EXPECT_FALSE(link.HasDeliverable(LinkDir::kServerToClient))
      << "Pump leaves the owed ack to the owner";

  // The owner's reply carries the ack, so SendOwedAck has nothing to send.
  Frame update;
  update.type = FrameType::kUpdate;
  update.payload = "update";
  server.SendReliable(std::move(update), link.now());
  server.SendOwedAck();
  link.Tick();
  std::vector<Frame> replies = client.Pump(link.now());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, FrameType::kUpdate);
  EXPECT_EQ(replies[0].ack, 1u);
  EXPECT_EQ(client.pending(), 0u) << "the update's ack released the edit";

  // Nothing heads back from the client: its owed ack goes out bare, once.
  client.SendOwedAck();
  client.SendOwedAck();
  link.Tick();
  EXPECT_EQ(link.Receive(LinkDir::kClientToServer).size(), 1u);
}

TEST(Channel, ReliableDeliveryInOrderOverCleanLink) {
  SimulatedLink link;
  Channel client(&link, LinkDir::kClientToServer);
  Channel server(&link, LinkDir::kServerToClient);
  for (int i = 0; i < 10; ++i) {
    Frame f;
    f.type = FrameType::kEdit;
    f.payload = "edit " + std::to_string(i);
    client.SendReliable(std::move(f), link.now());
  }
  std::vector<Frame> delivered = PumpBoth(client, server, link, 8);
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(delivered[i].payload, "edit " + std::to_string(i));
    EXPECT_EQ(delivered[i].seq, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(client.pending(), 0u);  // All acked.
  EXPECT_EQ(client.stats().retransmits, 0u);
}

TEST(Channel, RetransmitsDroppedFrameWithBackoff) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 9;
  plan.drops = 1;
  plan.rate = 1.0;
  SimulatedLink link(plan);
  Channel client(&link, LinkDir::kClientToServer);
  Channel server(&link, LinkDir::kServerToClient);
  Frame f;
  f.type = FrameType::kEdit;
  f.payload = "only";
  client.SendReliable(std::move(f), link.now());  // Dropped by the budget.
  // Both directions carry a one-drop budget, so the ack can be eaten too;
  // enough ticks for a second retransmit round.
  std::vector<Frame> delivered = PumpBoth(client, server, link, 40);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].payload, "only");
  EXPECT_GE(client.stats().retransmits, 1u);
  EXPECT_EQ(client.pending(), 0u);
}

TEST(Channel, DuplicatesAndReordersAreAbsorbed) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 21;
  plan.duplicates = 3;
  plan.delays = 3;
  plan.rate = 0.5;
  SimulatedLink link(plan);
  Channel client(&link, LinkDir::kClientToServer);
  Channel server(&link, LinkDir::kServerToClient);
  for (int i = 0; i < 20; ++i) {
    Frame f;
    f.type = FrameType::kEdit;
    f.payload = std::to_string(i);
    client.SendReliable(std::move(f), link.now());
  }
  std::vector<Frame> delivered = PumpBoth(client, server, link, 60);
  ASSERT_EQ(delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(delivered[i].payload, std::to_string(i));
  }
}

TEST(Channel, ExhaustedRetriesMarkChannelBroken) {
  SimulatedLink link;
  Channel client(&link, LinkDir::kClientToServer, {});
  Frame f;
  f.type = FrameType::kEdit;
  f.payload = "void";
  link.Sever();  // Nothing ever arrives or is acked.
  client.SendReliable(std::move(f), link.now());
  for (int i = 0; i < 2000 && !client.broken(); ++i) {
    client.Pump(link.now());
    link.Tick();
  }
  EXPECT_TRUE(client.broken());
}

TEST(Channel, BackoffDoublesPerRetry) {
  // A severed link acks nothing: every retransmit fires exactly on its
  // backoff deadline, so the gaps between consecutive send ticks must be
  // base, 2*base, 4*base, ... capped at max_backoff_ticks.
  SimulatedLink link;
  link.Sever();
  Channel::Config config;
  config.retransmit_base_ticks = 4;
  config.max_backoff_ticks = 64;
  config.max_retries = 6;
  Channel client(&link, LinkDir::kClientToServer, config);
  Frame f;
  f.type = FrameType::kEdit;
  client.SendReliable(std::move(f), link.now());
  uint64_t last_sends = client.stats().sent + client.stats().retransmits;
  uint64_t last_tick = link.now();
  std::vector<uint64_t> gaps;
  for (int i = 0; i < 400 && !client.broken(); ++i) {
    client.Pump(link.now());
    uint64_t sends = client.stats().sent + client.stats().retransmits;
    if (sends > last_sends) {
      gaps.push_back(link.now() - last_tick);
      last_tick = link.now();
      last_sends = sends;
    }
    link.Tick();
  }
  ASSERT_EQ(gaps.size(), 6u);  // max_retries retransmissions, then broken.
  EXPECT_EQ(gaps[0], 4u);
  EXPECT_EQ(gaps[1], 8u);
  EXPECT_EQ(gaps[2], 16u);
  EXPECT_EQ(gaps[3], 32u);
  EXPECT_EQ(gaps[4], 64u);
  EXPECT_EQ(gaps[5], 64u);  // Capped.
}

TEST(Channel, RttEstimateSamplesCleanAcksOnly) {
  SimulatedLink link;
  Channel client(&link, LinkDir::kClientToServer);
  Channel server(&link, LinkDir::kServerToClient);
  EXPECT_FALSE(client.has_rtt()) << "no samples before the first ack";
  EXPECT_EQ(client.rtt_estimate_ticks(), 0u);
  for (int i = 0; i < 10; ++i) {
    Frame f;
    f.type = FrameType::kEdit;
    f.payload = "probe " + std::to_string(i);
    client.SendReliable(std::move(f), link.now());
  }
  PumpBoth(client, server, link, 20);
  ASSERT_TRUE(client.has_rtt());
  // One link tick each way, plus pump ordering slop: the EWMA must settle
  // on a small constant for a clean link, never zero and never wild.
  EXPECT_GE(client.rtt_estimate_ticks(), 1u);
  EXPECT_LE(client.rtt_estimate_ticks(), 16u);
}

TEST(Channel, RttKarnRuleSkipsRetransmittedFrames) {
  // One dropped frame forces a retransmit; the ack that finally arrives is
  // ambiguous (original or retry?) and per Karn's rule must NOT feed the
  // estimator.  With only that one frame in flight, no estimate forms.
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 9;
  plan.drops = 1;
  plan.rate = 1.0;
  SimulatedLink link(plan);
  Channel client(&link, LinkDir::kClientToServer);
  Channel server(&link, LinkDir::kServerToClient);
  Frame f;
  f.type = FrameType::kEdit;
  f.payload = "only";
  client.SendReliable(std::move(f), link.now());  // Eaten by the drop budget.
  std::vector<Frame> delivered = PumpBoth(client, server, link, 40);
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_GE(client.stats().retransmits, 1u);
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_FALSE(client.has_rtt()) << "ambiguous ack after a retransmit must not be sampled";
}

// -------------------------------------------------------------- Protocol --

EditRecord MakeRecord(uint64_t version, EditOp::Kind kind, int64_t pos, std::string text,
                      int64_t len = 0) {
  EditRecord record;
  record.version = version;
  record.op.kind = kind;
  record.op.pos = pos;
  record.op.len = kind == EditOp::Kind::kInsert ? static_cast<int64_t>(text.size()) : len;
  record.op.text = std::move(text);
  return record;
}

TEST(Protocol, EditPayloadFlowEnvelopeIsOptionalAndRoundTrips) {
  EditPayload payload;
  payload.sent_tick = 9;
  payload.ops.push_back(MakeRecord(4, EditOp::Kind::kInsert, 2, "abc"));

  // Untraced payloads stay byte-identical to the pre-tracing wire format:
  // no flow/origin lines appear when flow == 0.
  std::string untraced = EncodeEdit(payload);
  EXPECT_EQ(untraced.find("flow "), std::string::npos);
  EXPECT_EQ(untraced.find("origin "), std::string::npos);
  EditPayload back;
  ASSERT_TRUE(DecodeEdit(untraced, &back));
  ASSERT_EQ(back.ops.size(), 1u);
  EXPECT_EQ(back.ops[0].flow, 0u);
  EXPECT_EQ(back.ops[0].origin_ns, 0u);

  payload.ops[0].flow = 77;
  payload.ops[0].origin_ns = 123456789;
  std::string traced = EncodeEdit(payload);
  EXPECT_NE(traced.find("flow 77\norigin 123456789\n"), std::string::npos);
  EditPayload traced_back;
  ASSERT_TRUE(DecodeEdit(traced, &traced_back));
  ASSERT_EQ(traced_back.ops.size(), 1u);
  EXPECT_EQ(traced_back.ops[0].flow, 77u);
  EXPECT_EQ(traced_back.ops[0].origin_ns, 123456789u);
  EXPECT_EQ(traced_back.ops[0].op.text, "abc");
  EXPECT_EQ(traced_back.ops[0].version, 4u);
  EXPECT_EQ(traced_back.sent_tick, 9u);

  // A flow line without its origin partner is a malformed envelope.
  std::string torn = traced;
  size_t origin_at = torn.find("origin 123456789\n");
  ASSERT_NE(origin_at, std::string::npos);
  torn.erase(origin_at, std::string("origin 123456789\n").size());
  EditPayload rejected;
  EXPECT_FALSE(DecodeEdit(torn, &rejected));
}

TEST(Protocol, OneOpPayloadIsByteIdenticalToTheSingleOpFormat) {
  // Golden bytes of the original single-op format: a one-op payload must
  // still read with a decoder that knows nothing of batches.
  EditPayload insert;
  insert.sent_tick = 9;
  insert.ops.push_back(MakeRecord(4, EditOp::Kind::kInsert, 2, "abc"));
  EXPECT_EQ(EncodeEdit(insert), "version 4\ntick 9\nop i 2 3\nabc");

  EditPayload traced_delete;
  traced_delete.sent_tick = 12;
  traced_delete.ops.push_back(MakeRecord(5, EditOp::Kind::kDelete, 1, "", 2));
  traced_delete.ops[0].flow = 77;
  traced_delete.ops[0].origin_ns = 123456789;
  EXPECT_EQ(EncodeEdit(traced_delete),
            "version 5\ntick 12\nflow 77\norigin 123456789\nop d 1 2\n");

  EditPayload traced_insert = insert;
  traced_insert.ops[0].flow = 3;
  traced_insert.ops[0].origin_ns = 40;
  EXPECT_EQ(EncodeEdit(traced_insert), "version 4\ntick 9\nflow 3\norigin 40\nop i 2 3\nabc");

  // And the golden bytes decode back to the same op.
  EditPayload back;
  ASSERT_TRUE(DecodeEdit("version 5\ntick 12\nflow 77\norigin 123456789\nop d 1 2\n", &back));
  ASSERT_EQ(back.ops.size(), 1u);
  EXPECT_EQ(back.sent_tick, 12u);
  EXPECT_EQ(back.ops[0].version, 5u);
  EXPECT_EQ(back.ops[0].flow, 77u);
  EXPECT_EQ(back.ops[0].op.kind, EditOp::Kind::kDelete);
  EXPECT_EQ(back.ops[0].op.pos, 1);
  EXPECT_EQ(back.ops[0].op.len, 2);
}

TEST(Protocol, MultiOpPayloadRoundTripsWithPerOpFlows) {
  EditPayload payload;
  payload.sent_tick = 31;
  payload.ops.push_back(MakeRecord(10, EditOp::Kind::kInsert, 0, "line\nwith newline"));
  payload.ops[0].flow = 5;
  payload.ops[0].origin_ns = 500;
  payload.ops.push_back(MakeRecord(11, EditOp::Kind::kDelete, 3, "", 4));
  payload.ops.push_back(MakeRecord(12, EditOp::Kind::kInsert, 7, "version 1\ntick 2\n"));
  payload.ops[2].flow = 6;
  payload.ops[2].origin_ns = 600;
  payload.ops.push_back(MakeRecord(13, EditOp::Kind::kInsert, 1, ""));

  std::string wire = EncodeEdit(payload);
  // The tick rides the first record only; every record has its own version.
  EXPECT_EQ(wire.substr(0, 84),
            "version 10\ntick 31\nflow 5\norigin 500\nop i 0 17\nline\nwith newline"
            "version 11\nop d 3 4\n");
  EditPayload back;
  ASSERT_TRUE(DecodeEdit(wire, &back));
  EXPECT_EQ(back.sent_tick, 31u);
  ASSERT_EQ(back.ops.size(), payload.ops.size());
  for (size_t i = 0; i < payload.ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(back.ops[i].version, payload.ops[i].version);
    EXPECT_EQ(back.ops[i].flow, payload.ops[i].flow);
    EXPECT_EQ(back.ops[i].origin_ns, payload.ops[i].origin_ns);
    EXPECT_EQ(back.ops[i].op.kind, payload.ops[i].op.kind);
    EXPECT_EQ(back.ops[i].op.pos, payload.ops[i].op.pos);
    EXPECT_EQ(back.ops[i].op.len, payload.ops[i].op.len);
    EXPECT_EQ(back.ops[i].op.text, payload.ops[i].op.text);
  }
}

TEST(Protocol, SnapshotSumIsTheCrcOfVersionLineAndDocument) {
  std::string document = "\\begindata{text,1}\n";
  while (document.size() < 6000) {
    document += "line " + std::to_string(document.size()) + " of a snapshot body\n";
  }
  document += "\\enddata{text,1}\n";
  for (uint64_t version : {uint64_t{0}, uint64_t{7}, uint64_t{123456789},
                           ~uint64_t{0}}) {
    SCOPED_TRACE(version);
    EXPECT_EQ(SnapshotSum(version, document),
              Crc32(std::to_string(version) + "\n" + document));
  }
  EXPECT_EQ(SnapshotSum(3, ""), Crc32("3\n"));
}

TEST(Protocol, DamagedEditPayloadsAreRejected) {
  EditPayload out;
  // Text shorter than the op's length.
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop i 0 5\nabc", &out));
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop i 0 3\nabcversion 2\nop i 0 9\nxy", &out));
  // Trailing junk after the last op.
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop i 0 3\nabcjunk", &out));
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop d 0 3\n\n", &out));
  // Negative position or length.
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop d -1 3\n", &out));
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop d 0 -3\n", &out));
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop i 0 2\nab" "version 2\nop d -4 1\n", &out));
  // An empty op list.
  EXPECT_FALSE(DecodeEdit("", &out));
  // A later record repeating the tick line is not a record.
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop d 0 1\nversion 2\ntick 1\nop d 0 1\n", &out));
  // The well-formed two-op payload those cases were cut from decodes.
  ASSERT_TRUE(DecodeEdit("version 1\ntick 1\nop i 0 2\nabversion 2\nop d 0 1\n", &out));
  EXPECT_EQ(out.ops.size(), 2u);
}

TEST(Protocol, OutOfRangeEditNumbersAreRejected) {
  EditPayload out;
  ASSERT_TRUE(DecodeEdit("version 18446744073709551615\ntick 1\nop d 0 1\n", &out));
  EXPECT_EQ(out.ops[0].version, UINT64_MAX);
  // One past UINT64_MAX used to wrap to version 0 and decode.
  EXPECT_FALSE(DecodeEdit("version 18446744073709551616\ntick 1\nop d 0 1\n", &out));
  EXPECT_FALSE(DecodeEdit("version 99999999999999999999\ntick 1\nop d 0 1\n", &out));
  // 2^64 + 1 used to wrap to a length of 1.
  EXPECT_FALSE(DecodeEdit("version 1\ntick 1\nop d 0 18446744073709551617\n", &out));
}

// ------------------------------------------------------------- Sessions ---

struct Harness {
  DocumentServer server;
  std::vector<std::unique_ptr<SimulatedLink>> links;
  std::vector<std::unique_ptr<ClientSession>> clients;
  std::vector<int> endpoint_ids;  // Parallel to links.

  explicit Harness(DocumentServer::Config config = DocumentServer::Config())
      : server(config) {}

  ClientSession* AddClient(const std::string& name, const std::string& doc,
                           const TransportFaultPlan& plan = TransportFaultPlan::Clean(),
                           ClientSession::Config config = ClientSession::Config()) {
    links.push_back(std::make_unique<SimulatedLink>(plan));
    endpoint_ids.push_back(server.AttachLink(links.back().get()));
    clients.push_back(
        std::make_unique<ClientSession>(name, doc, links.back().get(), config));
    clients.back()->Connect(links.back()->now());
    return clients.back().get();
  }

  void Step() {
    for (size_t i = 0; i < clients.size(); ++i) {
      clients[i]->Pump(links[i]->now());
    }
    server.PumpOnce();
    for (auto& link : links) {
      link->Tick();
    }
  }

  // True when every client is synced and nothing is in flight anywhere.
  // The server's unacked frames count too: an update sitting out a long
  // retransmit backoff leaves the wire silent for tens of ticks while the
  // system is anything but done.
  bool Quiesced() const {
    // An undelivered eviction notice means some client still holds a stale
    // replica it believes is synced; the notice retry may be a full
    // interval away with the wire silent in between.
    if (server.pending_frames() != 0 || server.pending_evictions() != 0) {
      return false;
    }
    for (size_t i = 0; i < clients.size(); ++i) {
      if (!clients[i]->attached() || !clients[i]->synced() ||
          clients[i]->channel().pending() != 0) {
        return false;
      }
      if (links[i]->HasDeliverable(LinkDir::kClientToServer) ||
          links[i]->HasDeliverable(LinkDir::kServerToClient)) {
        return false;
      }
    }
    return true;
  }

  // Steps until quiesced (with a settle tail); asserts it happens in time.
  void Settle(int max_ticks = 30000) {
    int quiet = 0;
    for (int i = 0; i < max_ticks; ++i) {
      Step();
      quiet = Quiesced() ? quiet + 1 : 0;
      if (quiet >= 8) {
        return;
      }
    }
    FAIL() << "system did not quiesce within " << max_ticks << " ticks";
  }
};

std::unique_ptr<TextData> MakeDoc(const std::string& text) {
  auto doc = std::make_unique<TextData>();
  doc->SetText(text);
  return doc;
}

TEST(DocumentServer, SessionsAttachAndReceiveSnapshot) {
  Harness h;
  h.server.HostDocument("notes", MakeDoc("hello shared world"));
  ClientSession* a = h.AddClient("alice", "notes");
  ClientSession* b = h.AddClient("bob", "notes");
  h.Settle();
  EXPECT_EQ(h.server.session_count(), 2u);
  ASSERT_NE(a->replica(), nullptr);
  ASSERT_NE(b->replica(), nullptr);
  EXPECT_EQ(a->replica()->GetAllText(), "hello shared world");
  EXPECT_EQ(b->replica()->GetAllText(), "hello shared world");
  EXPECT_NE(a->session_id(), b->session_id());
}

TEST(DocumentServer, EditsFanOutToEverySession) {
  Harness h;
  h.server.HostDocument("notes", MakeDoc("shared"));
  ClientSession* a = h.AddClient("alice", "notes");
  ClientSession* b = h.AddClient("bob", "notes");
  h.Settle();

  EditOp op;
  op.kind = EditOp::Kind::kInsert;
  op.pos = 0;
  op.len = 5;
  op.text = "very ";
  a->SubmitEdit(op);
  h.Settle();

  EXPECT_EQ(h.server.document("notes")->GetAllText(), "very shared");
  EXPECT_EQ(a->replica()->GetAllText(), "very shared");
  EXPECT_EQ(b->replica()->GetAllText(), "very shared");
  EXPECT_EQ(a->applied_version(), h.server.version("notes"));
  EXPECT_EQ(b->applied_version(), h.server.version("notes"));
  EXPECT_GE(h.server.stats().updates_fanned_out, 2u);
}

// Frames each client's channel has delivered to the session so far.  Over
// clean links with every session synced, the only sequenced frames left to
// arrive are kUpdate batches and snapshots.
std::vector<uint64_t> DeliveredFrames(const Harness& h) {
  std::vector<uint64_t> delivered;
  for (const auto& client : h.clients) {
    delivered.push_back(client->channel().stats().delivered);
  }
  return delivered;
}

EditOp InsertOp(int64_t pos, const std::string& text) {
  EditOp op;
  op.kind = EditOp::Kind::kInsert;
  op.pos = pos;
  op.len = static_cast<int64_t>(text.size());
  op.text = text;
  return op;
}

TEST(DocumentServer, BurstFromOneTickIsOneUpdateFramePerSession) {
  Harness h;
  h.server.HostDocument("notes", MakeDoc("burst base"));
  constexpr int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    h.AddClient("client-" + std::to_string(i), "notes");
  }
  h.Settle();
  uint64_t version = h.server.version("notes");
  std::vector<uint64_t> delivered = DeliveredFrames(h);
  uint64_t fanned = h.server.stats().updates_fanned_out;
  observability::Counter& frames_sent =
      observability::MetricsRegistry::Instance().counter("server.frames.sent");
  uint64_t sent = frames_sent.value();

  for (int i = 0; i < kClients; ++i) {
    h.clients[i]->SubmitEdit(InsertOp(0, "<" + std::to_string(i) + ">"));
  }
  h.Settle();

  const std::string server_text = h.server.document("notes")->GetAllText();
  EXPECT_EQ(h.server.version("notes"), version + kClients);
  EXPECT_EQ(h.server.stats().updates_fanned_out - fanned, static_cast<uint64_t>(kClients));
  // Per client: its edit, its update (carrying the edit's ack) and its bare
  // ack of the update.  A separate bare ack of the edit would make it 4.
  EXPECT_EQ(frames_sent.value() - sent, static_cast<uint64_t>(3 * kClients));
  for (int i = 0; i < kClients; ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    EXPECT_EQ(h.clients[i]->channel().stats().delivered - delivered[i], 1u)
        << "the burst reaches each session as one kUpdate frame";
    EXPECT_EQ(h.clients[i]->applied_version(), version + kClients);
    EXPECT_EQ(h.clients[i]->replica()->GetAllText(), server_text);
  }
}

TEST(DocumentServer, HelloInTheSamePumpAsPendingOpsAppliesEachOpOnce) {
  Harness h;
  h.server.HostDocument("notes", MakeDoc("hello base"));
  ClientSession* alice = h.AddClient("alice", "notes");
  h.AddClient("bob", "notes");
  h.AddClient("carol", "notes");
  h.Settle();
  ASSERT_EQ(alice->stats().updates_applied, 0u);
  uint64_t version = h.server.version("notes");

  // One pump sees, in endpoint order: alice re-dialling (her hello comes
  // before the ops), bob's and carol's edits, then dave's first hello
  // (after the ops, which his snapshot already holds).
  alice->Connect(h.links[0]->now());
  h.clients[1]->SubmitEdit(InsertOp(0, "b "));
  h.clients[2]->SubmitEdit(InsertOp(0, "c "));
  ClientSession* dave = h.AddClient("dave", "notes");
  std::vector<uint64_t> delivered = DeliveredFrames(h);
  uint64_t attached = h.server.stats().sessions_attached;
  uint64_t applied = h.server.stats().edits_applied;
  h.Step();
  ASSERT_EQ(h.server.stats().sessions_attached, attached + 2) << "both hellos in one pump";
  ASSERT_EQ(h.server.stats().edits_applied, applied + 2) << "both edits in the same pump";
  h.Settle();

  const std::string server_text = h.server.document("notes")->GetAllText();
  EXPECT_EQ(h.server.version("notes"), version + 2);
  for (size_t i = 0; i < h.clients.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    EXPECT_EQ(h.clients[i]->replica()->GetAllText(), server_text);
    EXPECT_EQ(h.clients[i]->applied_version(), version + 2);
  }
  // Each op applied exactly once per replica: alice's snapshot predates
  // both ops, dave's holds both.
  EXPECT_EQ(alice->stats().updates_applied, 2u);
  EXPECT_EQ(h.clients[1]->stats().updates_applied, 2u);
  EXPECT_EQ(h.clients[2]->stats().updates_applied, 2u);
  EXPECT_EQ(dave->stats().updates_applied, 0u);
  for (size_t i = 1; i <= 2; ++i) {
    EXPECT_EQ(h.clients[i]->channel().stats().delivered - delivered[i], 1u)
        << "client " << i << " gets both ops in one kUpdate frame";
  }
}

TEST(DocumentServer, SnapshotAfterPendingOpsKeepsEveryReplicaEqual) {
  Harness h;
  TextData* doc = h.server.HostDocument("notes", MakeDoc("before"));
  h.AddClient("alice", "notes");
  h.AddClient("bob", "notes");
  h.Settle();
  std::vector<uint64_t> delivered = DeliveredFrames(h);

  // Direct mutations batch until the next pump; the snapshot that SetText
  // (kModified) forces flushes the batch ahead of itself.
  doc->InsertString(0, "one ");
  doc->InsertString(0, "two ");
  EXPECT_GT(h.server.pending_frames(), 0u) << "an unflushed batch is pending work";
  doc->SetText("entirely new content");
  h.Settle();

  const std::string server_bytes = WriteDocument(*h.server.document("notes"));
  for (size_t i = 0; i < h.clients.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    EXPECT_EQ(WriteDocument(*h.clients[i]->replica()), server_bytes);
    EXPECT_EQ(h.clients[i]->applied_version(), h.server.version("notes"));
    EXPECT_EQ(h.clients[i]->stats().updates_applied, 2u);
    EXPECT_EQ(h.clients[i]->channel().stats().delivered - delivered[i], 2u)
        << "one kUpdate frame for both ops, then the snapshot";
  }
}

TEST(DocumentServer, EndpointIdsAreNotReusedAfterDetach) {
  // Attach two, detach the first, attach again.  An id derived from the
  // endpoint count would hand the newcomer the second endpoint's id: both
  // would write the same server.endpoint_<id>.* gauges, and detaching the
  // newcomer would cut the older session loose instead.
  Harness h;
  h.server.HostDocument("notes", MakeDoc("shared"));
  h.AddClient("alice", "notes");
  ClientSession* bob = h.AddClient("bob", "notes");
  h.Settle();
  h.server.DetachLink(h.endpoint_ids[0]);
  h.AddClient("carol", "notes");
  EXPECT_NE(h.endpoint_ids[2], h.endpoint_ids[1]);

  h.server.DetachLink(h.endpoint_ids[2]);
  EditOp op;
  op.kind = EditOp::Kind::kInsert;
  op.pos = 0;
  op.len = 5;
  op.text = "very ";
  bob->SubmitEdit(op);
  for (int i = 0; i < 500 && h.server.document("notes")->GetAllText() != "very shared"; ++i) {
    h.Step();
  }
  EXPECT_EQ(h.server.document("notes")->GetAllText(), "very shared")
      << "bob's endpoint must survive the newcomer's detach";
  EXPECT_EQ(h.server.session_count(), 1u);
}

TEST(DocumentServer, ProgrammaticMutationFansOutThroughObserver) {
  // The fan-out rides the §2 observer mechanism, so a direct mutation of the
  // hosted document — no client involved — reaches every replica too.
  Harness h;
  TextData* doc = h.server.HostDocument("notes", MakeDoc("base"));
  ClientSession* a = h.AddClient("alice", "notes");
  h.Settle();
  doc->InsertString(4, " camp");
  h.Settle();
  EXPECT_EQ(a->replica()->GetAllText(), "base camp");
}

TEST(DocumentServer, NonIncrementalChangeEscalatesToSnapshot) {
  Harness h;
  TextData* doc = h.server.HostDocument("notes", MakeDoc("old"));
  ClientSession* a = h.AddClient("alice", "notes");
  h.Settle();
  uint64_t snapshots_before = h.server.stats().snapshots_sent;
  doc->SetText("entirely new content");  // kModified: not a text op.
  h.Settle();
  EXPECT_GT(h.server.stats().snapshots_sent, snapshots_before);
  EXPECT_EQ(a->replica()->GetAllText(), "entirely new content");
}

TEST(DocumentServer, EmbeddedObjectInsertEscalatesToSnapshot) {
  Harness h;
  TextData* doc = h.server.HostDocument("notes", MakeDoc("report: "));
  ClientSession* a = h.AddClient("alice", "notes");
  h.Settle();
  doc->InsertObject(8, MakeDoc("inner table"));
  h.Settle();
  // The replica resynced through a snapshot, so the anchor and the embedded
  // child both survive; full §5 round-trip equality.
  EXPECT_EQ(WriteDocument(*a->replica()), WriteDocument(*h.server.document("notes")));
  EXPECT_EQ(a->replica()->embedded_count(), 1u);
}

TEST(DocumentServer, UnknownDocumentIsRefused) {
  Harness h;
  h.server.HostDocument("notes", MakeDoc("x"));
  ClientSession::Config config;
  config.auto_reconnect = false;
  ClientSession* a =
      h.AddClient("alice", "no-such-doc", TransportFaultPlan::Clean(), config);
  for (int i = 0; i < 200; ++i) {
    h.Step();
  }
  EXPECT_EQ(a->state(), ClientSession::State::kEvicted);
  EXPECT_NE(a->evict_reason().find("no such document"), std::string::npos);
}

TEST(DocumentServer, HelloRetriesSurviveLossyAttach) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 13;
  plan.drops = 3;
  plan.rate = 1.0;  // The first three frames each way are eaten.
  Harness h;
  h.server.HostDocument("notes", MakeDoc("persist"));
  ClientSession* a = h.AddClient("alice", "notes", plan);
  h.Settle();
  EXPECT_TRUE(a->attached());
  EXPECT_GE(a->stats().hello_retries, 1u);
  EXPECT_EQ(a->replica()->GetAllText(), "persist");
}

TEST(DocumentServer, ConnectionDropForcesReconnectAndResync) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 17;
  plan.conn_drops = 1;
  plan.rate = 0.2;
  Harness h;
  h.server.HostDocument("notes", MakeDoc("to be resynced"));
  ClientSession* a = h.AddClient("alice", "notes", plan);
  EditOp op;
  op.kind = EditOp::Kind::kInsert;
  op.pos = 0;
  op.len = 4;
  op.text = "now ";
  // Keep editing so the conn-drop budget has traffic to fire on.
  for (int i = 0; i < 40; ++i) {
    if (i % 10 == 0) {
      a->SubmitEdit(op);
    }
    h.Step();
  }
  h.Settle();
  // Each direction carries its own conn-drop budget: one or two severs.
  EXPECT_GE(h.links[0]->sever_count(), 1);
  EXPECT_GE(a->stats().reconnects, 1u);
  EXPECT_EQ(a->replica()->GetAllText(), h.server.document("notes")->GetAllText());
}

TEST(DocumentServer, CorruptSnapshotIsSalvagedThenReplacedByCleanOne) {
  TransportFaultPlan plan = TransportFaultPlan::Clean();
  plan.seed = 23;
  plan.payload_corruptions = 1;
  plan.rate = 1.0;  // The first snapshot is damaged at rest.
  Harness h;
  h.server.HostDocument("notes", MakeDoc("precious content that must survive"));
  ClientSession* a = h.AddClient("alice", "notes", plan);
  h.Settle();
  EXPECT_GE(a->stats().snapshots_salvaged, 1u);
  EXPECT_FALSE(a->degraded());  // A clean snapshot eventually replaced it.
  EXPECT_EQ(a->replica()->GetAllText(), "precious content that must survive");
}

TEST(DocumentServer, SlowSessionIsEvictedWithDiagnostic) {
  DocumentServer::Config config;
  config.max_send_queue = 4;  // Tiny backpressure budget.
  config.channel.max_retries = 3;
  Harness h(config);
  TextData* doc = h.server.HostDocument("notes", MakeDoc("busy"));
  ClientSession* a = h.AddClient("alice", "notes");
  ClientSession* b = h.AddClient("bob", "notes");
  h.Settle();

  // Bob's link goes dark; Alice keeps editing.  Bob's send queue grows past
  // the budget (or his channel breaks) and the server must cut him loose
  // rather than let his queue grow forever.  Bob's client is NOT pumped — a
  // truly dead peer never re-dials — so the sever sticks.
  h.links[1]->Sever();
  for (int i = 0; i < 400 && h.server.stats().sessions_evicted == 0; ++i) {
    if (i % 5 == 0) {
      doc->InsertString(0, "x");
    }
    h.clients[0]->Pump(h.links[0]->now());
    h.server.PumpOnce();
    h.links[0]->Tick();
    h.links[1]->Tick();
  }
  EXPECT_GE(h.server.stats().sessions_evicted, 1u);
  ASSERT_FALSE(h.server.diagnostics().empty());
  EXPECT_EQ(h.server.diagnostics().front().code, StatusCode::kUnavailable);
  // Alice never stalled.
  EXPECT_TRUE(a->attached());
  (void)b;
}

TEST(DocumentServer, EvictedSessionReconnectsAndConverges) {
  DocumentServer::Config config;
  config.max_send_queue = 4;
  config.channel.max_retries = 3;
  Harness h(config);
  TextData* doc = h.server.HostDocument("notes", MakeDoc("start"));
  ClientSession* b = h.AddClient("bob", "notes");
  h.Settle();

  // Sever long enough to get Bob evicted, then let him come back.
  h.links[0]->Sever();
  for (int i = 0; i < 400 && h.server.stats().sessions_evicted == 0; ++i) {
    if (i % 5 == 0) {
      doc->InsertString(0, "y");
    }
    h.server.PumpOnce();
    h.links[0]->Tick();
  }
  ASSERT_GE(h.server.stats().sessions_evicted, 1u);
  h.Settle();  // Bob notices the dead link, reconnects, resyncs.
  EXPECT_TRUE(b->attached());
  EXPECT_EQ(b->replica()->GetAllText(), doc->GetAllText());
}

TEST(DocumentServer, PublishesPerSessionTelemetryGauges) {
  Harness h;
  h.server.HostDocument("notes", MakeDoc("shared"));
  ClientSession* a = h.AddClient("alice", "notes");
  h.AddClient("bob", "notes");
  h.Settle();
  EditOp op;
  op.kind = EditOp::Kind::kInsert;
  op.pos = 0;
  op.len = 5;
  op.text = "very ";
  a->SubmitEdit(op);
  h.Settle();

  // Every endpoint publishes the full gauge quartet derived from the
  // channel's seq/ack bookkeeping; after an acked fan-out the RTT EWMA has
  // real samples on at least the active sessions.
  observability::TraceSnapshot snap = observability::Snapshot();
  std::map<std::string, std::set<std::string>> endpoints;  // id -> suffixes
  int64_t max_rtt = 0;
  constexpr std::string_view kPrefix = "server.endpoint_";
  for (const auto& gauge : snap.gauges) {
    std::string_view name = gauge.name;
    if (name.substr(0, kPrefix.size()) != kPrefix) {
      continue;
    }
    std::string_view rest = name.substr(kPrefix.size());
    size_t dot = rest.find('.');
    ASSERT_NE(dot, std::string_view::npos) << gauge.name;
    endpoints[std::string(rest.substr(0, dot))].insert(std::string(rest.substr(dot + 1)));
    if (rest.substr(dot + 1) == "rtt_ticks") {
      max_rtt = std::max(max_rtt, gauge.value);
    }
  }
  EXPECT_GE(endpoints.size(), 2u) << "one gauge set per attached session";
  for (const auto& [id, suffixes] : endpoints) {
    EXPECT_TRUE(suffixes.count("rtt_ticks")) << "endpoint " << id;
    EXPECT_TRUE(suffixes.count("retransmits")) << "endpoint " << id;
    EXPECT_TRUE(suffixes.count("queue_depth")) << "endpoint " << id;
    EXPECT_TRUE(suffixes.count("epoch")) << "endpoint " << id;
  }
  EXPECT_GE(max_rtt, 1) << "acked updates must have fed the RTT estimator";
}

// ------------------------------------------------- The differential sweep --

// Runs one seeded scenario: N clients, a seeded edit trace, a seeded
// transport fault plan on every link, driven until quiescence.  Asserts the
// sharing contract: every replica byte-identical to the server's document.
void RunSeededScenario(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  SessionTraceSpec spec;
  spec.seed = seed;
  spec.sessions = 4;
  spec.steps = 48;
  spec.initial_size = 192;
  SessionTrace trace = BuildSessionTrace(spec);

  Harness h;
  h.server.HostDocument("shared", MakeDoc(trace.initial_text));
  for (int i = 0; i < spec.sessions; ++i) {
    h.AddClient("client-" + std::to_string(i), "shared",
                TransportFaultPlan::FromSeed(seed * 1000 + i));
  }

  size_t next_step = 0;
  int guard = 0;
  while (next_step < trace.steps.size()) {
    ASSERT_LT(++guard, 60000) << "trace feed did not complete";
    const TraceStep& step = trace.steps[next_step];
    // Feed each step once its client is synced, one step per tick.
    if (h.clients[step.session]->synced()) {
      EditOp op;
      op.kind = step.insert ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
      op.pos = step.pos;
      op.len = step.len;
      op.text = step.text;
      h.clients[step.session]->SubmitEdit(op);
      ++next_step;
    }
    h.Step();
  }
  h.Settle(60000);

  const TextData* authoritative = h.server.document("shared");
  ASSERT_NE(authoritative, nullptr);
  std::string server_text = authoritative->GetAllText();
  std::string server_bytes = WriteDocument(*authoritative);
  for (int i = 0; i < spec.sessions; ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    ASSERT_NE(h.clients[i]->replica(), nullptr);
    EXPECT_EQ(h.clients[i]->replica()->GetAllText(), server_text);
    EXPECT_EQ(WriteDocument(*h.clients[i]->replica()), server_bytes);
    EXPECT_EQ(h.clients[i]->applied_version(), h.server.version("shared"));
  }
}

TEST(ServerDifferential, SixtyFourSeedTransportFaultSweep) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    RunSeededScenario(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(ServerDifferential, CleanRunMatchesTraceOrderExpectation) {
  // Without faults the server applies edits in trace order, so the final
  // text is exactly the trace's own replay.
  SessionTraceSpec spec;
  spec.seed = 99;
  spec.sessions = 1;
  spec.steps = 64;
  SessionTrace trace = BuildSessionTrace(spec);

  Harness h;
  h.server.HostDocument("shared", MakeDoc(trace.initial_text));
  h.AddClient("solo", "shared");
  size_t next_step = 0;
  int guard = 0;
  while (next_step < trace.steps.size()) {
    ASSERT_LT(++guard, 20000);
    if (h.clients[0]->synced()) {
      const TraceStep& step = trace.steps[next_step++];
      EditOp op;
      op.kind = step.insert ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
      op.pos = step.pos;
      op.len = step.len;
      op.text = step.text;
      h.clients[0]->SubmitEdit(op);
    }
    h.Step();
  }
  h.Settle();
  EXPECT_EQ(h.server.document("shared")->GetAllText(), ExpectedFinalText(trace));
  EXPECT_EQ(h.clients[0]->replica()->GetAllText(), ExpectedFinalText(trace));
}

// --------------------------------------- Traced propagation (DESIGN.md §8) --

// One edit's causal path as reconstructed from the span ring: every span
// carrying the same flow id, bucketed by role.
struct FlowPath {
  int submits = 0;          // client.edit.submit at the origin
  int applies = 0;          // server.edit.apply
  int replica_applies = 0;  // client.update.apply, one per converged replica
  int retransmits = 0;      // server.frame.retransmit along the way
  std::set<uint32_t> tracks;
};

TEST(ServerDifferential, TracedSweepStitchesEditPropagationFlows) {
  // The acceptance bar for the tracing tentpole: the seeded fault sweep,
  // with tracing on, must yield at least one edit whose flow is traceable
  // origin -> server -> every replica, with at least one retransmit span
  // tagged into the same flow (the faults guarantee drops), spanning the
  // origin's, the server's and each session's track.
  using observability::SpanRecord;
  using observability::Tracer;
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(1 << 17);
  tracer.SetFlowsEnabled(true);
  observability::Histogram& latency =
      observability::MetricsRegistry::Instance().histogram("server.propagation.latency_us");

  constexpr int kSessions = 4;  // Mirrors RunSeededScenario's spec.
  bool found = false;
  for (uint64_t seed = 0; seed < 64 && !found; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    tracer.Clear();
    FlowTracker::Instance().Reset();
    tracer.SetEnabled(true);
    RunSeededScenario(seed);
    tracer.SetEnabled(false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }

    observability::TraceSnapshot snap = observability::Snapshot();
    std::map<uint64_t, FlowPath> flows;
    for (const SpanRecord& span : snap.spans) {
      if (span.flow == 0) {
        continue;
      }
      FlowPath& path = flows[span.flow];
      path.tracks.insert(span.track);
      if (span.name_view() == "client.edit.submit") {
        ++path.submits;
      } else if (span.name_view() == "server.edit.apply") {
        ++path.applies;
      } else if (span.name_view() == "client.update.apply") {
        ++path.replica_applies;
      } else if (span.name_view() == "server.frame.retransmit") {
        ++path.retransmits;
      }
    }
    for (const auto& [flow_id, path] : flows) {
      if (path.submits >= 1 && path.applies >= 1 && path.replica_applies >= kSessions &&
          path.retransmits >= 1 && path.tracks.size() >= 3) {
        found = true;
        // Origin, server and every replica each live on their own track:
        // the origin session's track, the server's, and the three other
        // sessions' (the origin's submit and replica-apply share one).
        EXPECT_GE(path.tracks.size(), static_cast<size_t>(1 + kSessions));
        // CI (and anyone debugging a sweep failure) gets the full Perfetto
        // document of the first seed that exhibits a complete flow.
        const char* export_path = std::getenv("ATK_SERVER_TRACE_EXPORT");
        if (export_path != nullptr && *export_path != '\0') {
          std::ofstream out(export_path);
          ASSERT_TRUE(out.good()) << "cannot write " << export_path;
          out << observability::TraceExport::ToPerfettoJson(snap);
        }
        break;
      }
    }
  }
  EXPECT_TRUE(found) << "no seed produced a fully traceable retransmitted edit flow";
  // Converged flows closed the end-to-end histogram: origin -> last replica.
  EXPECT_GT(latency.count(), 0u);

  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
}

TEST(ServerDifferential, TracedSweepKeepsSpanRingCoherent) {
  // Ring-integrity bar, meant for the TSan run (sanitize label): a seeded
  // fault scenario records server/session spans while a second thread
  // hammers its own ring with flow-tagged probe spans.  Afterwards every
  // retained record must be whole — globally strictly increasing seqs after
  // the Collect merge (no duplicated or reordered slots; gaps are fine, they
  // are the overwritten ring entries) and intact NUL-terminated printable
  // names.
  using observability::ScopedSpan;
  using observability::SpanRecord;
  using observability::Tracer;
  Tracer& tracer = Tracer::Instance();
  tracer.SetCapacity(8192);
  tracer.Clear();
  FlowTracker::Instance().Reset();
  tracer.SetEnabled(true);

  std::atomic<bool> stop{false};
  std::thread prober([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      observability::FlowScope flow(observability::NextFlowId());
      ScopedSpan span("probe.ring.span");
      span.set_arg(1);
      std::this_thread::yield();
    }
  });
  RunSeededScenario(3);
  stop.store(true, std::memory_order_relaxed);
  prober.join();
  tracer.SetEnabled(false);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_FALSE(spans.empty());
  bool first = true;
  uint64_t prev_seq = 0;
  int torn = 0;
  for (const SpanRecord& span : spans) {
    if (!first && span.seq <= prev_seq) {
      ++torn;
    }
    first = false;
    prev_seq = span.seq;
    std::string_view name = span.name_view();
    if (name.empty()) {
      ++torn;
      continue;
    }
    for (char c : name) {
      if (!std::isprint(static_cast<unsigned char>(c))) {
        ++torn;
        break;
      }
    }
  }
  EXPECT_EQ(torn, 0) << "ring holds torn or non-consecutive records";

  tracer.SetCapacity(Tracer::kDefaultCapacity);
  tracer.Clear();
}

}  // namespace
}  // namespace server
}  // namespace atk
