#include "src/workload/edit_replay.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <memory>
#include <sstream>
#include <utility>

#include "src/components/text/text_data.h"
#include "src/datastream/directive_args.h"
#include "src/datastream/reader.h"
#include "src/datastream/record_reader.h"
#include "src/datastream/writer.h"
#include "src/observability/observability.h"
#include "src/server/client_session.h"
#include "src/server/document_server.h"
#include "src/server/transport_sim.h"
#include "src/workload/scenario.h"

namespace atk {
namespace {

using observability::Counter;
using observability::Histogram;
using observability::MetricsRegistry;
using server::ClientSession;
using server::DocumentServer;
using server::EditOp;
using server::LinkDir;
using server::SimulatedLink;

constexpr const char* kDocName = "replayed";
// Hex chars per \inittext line: 64 (32 payload bytes) keeps the directive
// inside the §5 80-column guideline.
constexpr size_t kHexChunk = 64;
// Consecutive fully-quiescent ticks with the version still short before an
// edit is declared lost.  Quiescence means nothing is in flight anywhere,
// so any positive threshold is safe; a few ticks of margin cost nothing.
constexpr int kLostEditQuietTicks = 16;

// The fleet a recording or replay drives: one server, N clients on their
// own links.  Mirrors the test harness in tests/test_server.cc, minus gtest.
struct Fleet {
  DocumentServer server;
  std::vector<std::unique_ptr<SimulatedLink>> links;
  std::vector<std::unique_ptr<ClientSession>> clients;

  void AddClient(const std::string& name,
                 const TransportFaultPlan& plan = TransportFaultPlan::Clean()) {
    links.push_back(std::make_unique<SimulatedLink>(plan));
    server.AttachLink(links.back().get());
    clients.push_back(
        std::make_unique<ClientSession>(name, kDocName, links.back().get()));
    clients.back()->Connect(links.back()->now());
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

  // Nothing in flight anywhere: no undelivered frames, no unacked channel
  // state, no pending eviction notices, every client attached and synced.
  bool Quiesced() const {
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

  // Steps until quiesced (8-quiet-tick tail).  Returns ticks used, or -1 on
  // timeout.
  int Settle(int max_ticks) {
    int quiet = 0;
    for (int i = 0; i < max_ticks; ++i) {
      Step();
      quiet = Quiesced() ? quiet + 1 : 0;
      if (quiet >= 8) {
        return i + 1;
      }
    }
    return -1;
  }

  uint64_t TotalReconnects() const {
    uint64_t total = 0;
    for (const auto& client : clients) {
      total += client->stats().reconnects;
    }
    return total;
  }
};

EditOp ToEditOp(const RecordedEdit& edit) {
  EditOp op;
  op.kind = edit.insert ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
  op.pos = edit.pos;
  op.len = edit.insert ? static_cast<int64_t>(edit.text.size()) : edit.len;
  op.text = edit.text;
  return op;
}

Status ReadEditTraceBody(DataStreamReader& reader, EditTrace* out) {
  *out = EditTrace{};
  std::string init_hex;
  uint64_t declared_edits = 0;
  bool saw_meta = false;
  auto on_directive = [&](std::string_view name, const std::vector<std::string_view>& fields) {
    if (name == "replaymeta") {
      uint64_t version = 0;
      uint64_t sessions = 0;
      if (fields.size() < 4 || !ParseU64(fields[0], &version) ||
          !ParseU64(fields[1], &out->seed) || !ParseU64(fields[2], &sessions) ||
          !ParseU64(fields[3], &declared_edits) || sessions == 0 || sessions > INT_MAX) {
        return false;
      }
      out->sessions = static_cast<int>(sessions);
      saw_meta = true;
    } else if (name == "inittext") {
      if (fields.size() != 1) {
        return false;
      }
      init_hex += fields[0];
    } else if (name == "edit") {
      RecordedEdit edit;
      uint64_t session = 0;
      if (fields.size() != 6 || !ParseU64(fields[0], &edit.version) ||
          !ParseU64(fields[1], &session) || (fields[2] != "i" && fields[2] != "d") ||
          !ParseI64(fields[3], &edit.pos) || !ParseI64(fields[4], &edit.len) ||
          !HexDecode(fields[5], &edit.text) || session > INT_MAX) {
        return false;
      }
      edit.session = static_cast<int>(session);
      edit.insert = fields[2] == "i";
      if (edit.insert && edit.len != static_cast<int64_t>(edit.text.size())) {
        return false;
      }
      out->edits.push_back(std::move(edit));
    }
    // Unknown directives are skipped: a newer recorder may add fields.
    return true;
  };
  Status status = ReadRecordBody(reader, kEditTraceType, on_directive);
  if (!status.ok()) {
    return status;
  }
  if (!saw_meta) {
    return Status::Corrupt("editrace object without \\replaymeta");
  }
  if (!HexDecode(init_hex, &out->initial_text)) {
    return Status::Corrupt("malformed \\inittext hex payload");
  }
  if (out->edits.size() != declared_edits) {
    return Status::Corrupt("editrace declares " + std::to_string(declared_edits) +
                           " edits but carries " + std::to_string(out->edits.size()));
  }
  return Status::Ok();
}

}  // namespace

EditTrace RecordEditTrace(const SessionTraceSpec& spec) {
  SessionTrace script = BuildSessionTrace(spec);
  EditTrace trace;
  trace.seed = spec.seed;
  trace.sessions = std::max(1, spec.sessions);
  trace.initial_text = script.initial_text;

  Fleet fleet;
  auto doc = std::make_unique<TextData>();
  doc->SetText(script.initial_text);
  fleet.server.HostDocument(kDocName, std::move(doc));
  for (int i = 0; i < trace.sessions; ++i) {
    fleet.AddClient("recorder-" + std::to_string(i));
  }
  fleet.Settle(30000);

  for (const TraceStep& step : script.steps) {
    uint64_t before = fleet.server.version(kDocName);
    EditOp op;
    op.kind = step.insert ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
    op.pos = step.pos;
    op.len = step.len;
    op.text = step.text;
    int session = std::clamp(step.session, 0, trace.sessions - 1);
    fleet.clients[static_cast<size_t>(session)]->SubmitEdit(std::move(op));
    // Lock-step over clean links: settle the whole system, then look at the
    // version.  Unchanged means the server clamped the step into a no-op
    // (e.g. a delete at end-of-text) — such steps are not recorded, so a
    // recorded trace replays version-for-version.
    fleet.Settle(30000);
    if (fleet.server.version(kDocName) == before) {
      continue;
    }
    RecordedEdit edit;
    edit.version = fleet.server.version(kDocName);
    edit.session = session;
    edit.insert = step.insert;
    edit.pos = step.pos;
    edit.len = step.insert ? static_cast<int64_t>(step.text.size()) : step.len;
    edit.text = step.text;
    trace.edits.push_back(std::move(edit));
  }
  return trace;
}

std::string EditTraceToDatastream(const EditTrace& trace) {
  std::ostringstream out;
  DataStreamWriter writer(out);
  writer.BeginData(kEditTraceType);
  writer.WriteDirective(
      "replaymeta", Join({"1", std::to_string(trace.seed), std::to_string(trace.sessions),
                          std::to_string(trace.edits.size())}));
  writer.WriteNewline();
  std::string init_hex = HexEncode(trace.initial_text);
  for (size_t start = 0; start < init_hex.size(); start += kHexChunk) {
    writer.WriteDirective("inittext", init_hex.substr(start, kHexChunk));
    writer.WriteNewline();
  }
  if (init_hex.empty()) {
    writer.WriteDirective("inittext", "");
    writer.WriteNewline();
  }
  for (const RecordedEdit& edit : trace.edits) {
    writer.WriteDirective(
        "edit", Join({std::to_string(edit.version), std::to_string(edit.session),
                      edit.insert ? "i" : "d", std::to_string(edit.pos),
                      std::to_string(edit.len), HexEncode(edit.text)}));
    writer.WriteNewline();
  }
  writer.EndData();
  return out.str();
}

Status EditTraceFromDatastream(std::string_view data, EditTrace* out) {
  return ReadFirstRecord(data, kEditTraceType, [out](DataStreamReader& reader) {
    return ReadEditTraceBody(reader, out);
  });
}

ReplayResult ReplayEditTrace(const EditTrace& trace, const ReplayOptions& options) {
  static Counter& replayed =
      MetricsRegistry::Instance().counter("scenario.replay.edits");
  static Histogram& fanout_us =
      MetricsRegistry::Instance().histogram("scenario.replay.fanout_us");

  ReplayResult result;
  Fleet fleet;
  auto doc = std::make_unique<TextData>();
  doc->SetText(trace.initial_text);
  fleet.server.HostDocument(kDocName, std::move(doc));
  int sessions = std::max(1, trace.sessions);
  for (int i = 0; i < sessions; ++i) {
    TransportFaultPlan plan = TransportFaultPlan::Clean();
    if (options.use_env_faults) {
      plan = TransportFaultPlan::FromEnv();
    } else if (options.fault_seed != 0) {
      plan = TransportFaultPlan::FromSeed(options.fault_seed + static_cast<uint64_t>(i));
    }
    fleet.AddClient("replayer-" + std::to_string(i), plan);
  }

  int ticks = 0;
  bool timed_out = false;
  for (const RecordedEdit& edit : trace.edits) {
    ClientSession* client =
        fleet.clients[static_cast<size_t>(std::clamp(edit.session, 0, sessions - 1))].get();
    // Version gate: the previous edit is already applied (the loop below
    // waited for it), so submitting now preserves trace order at the server
    // no matter how the transport behaves in between.  Wait for the
    // submitting client to be synced first — the outbox only drains then.
    while (!client->attached() || !client->synced()) {
      fleet.Step();
      if (++ticks > options.max_ticks) {
        timed_out = true;
        break;
      }
    }
    if (timed_out) {
      break;
    }
    auto submit_start = std::chrono::steady_clock::now();
    client->SubmitEdit(ToEditOp(edit));
    int quiet_stalled = 0;
    while (fleet.server.version(kDocName) < edit.version) {
      fleet.Step();
      if (++ticks > options.max_ticks) {
        timed_out = true;
        break;
      }
      // Loss detection: the transport can eat an in-flight edit (a severed
      // link discards both directions; the outbox was already popped on
      // send).  Once the whole system is quiescent — nothing deliverable,
      // nothing unacked, nothing pending — and the version is still short,
      // the original can never arrive, so resubmitting cannot double-apply.
      if (fleet.Quiesced()) {
        if (++quiet_stalled >= kLostEditQuietTicks) {
          client->SubmitEdit(ToEditOp(edit));
          ++result.resubmissions;
          quiet_stalled = 0;
        }
      } else {
        quiet_stalled = 0;
      }
    }
    if (timed_out) {
      break;
    }
    auto elapsed = std::chrono::steady_clock::now() - submit_start;
    fanout_us.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
    replayed.Add(1);
    ++result.edits_applied;
  }

  // Let the last fan-out reach every replica before comparing.
  int settle = timed_out ? -1 : fleet.Settle(options.settle_ticks);
  result.completed = !timed_out && settle >= 0 &&
                     result.edits_applied == static_cast<int64_t>(trace.edits.size());
  result.ticks = ticks + std::max(0, settle);
  result.reconnects = fleet.TotalReconnects();
  result.final_version = fleet.server.version(kDocName);
  TextData* final_doc = fleet.server.document(kDocName);
  result.final_text = final_doc != nullptr ? final_doc->GetAllText() : std::string();
  result.final_digest = Fnv1a64(result.final_text);
  result.replicas_converged = result.completed;
  for (auto& client : fleet.clients) {
    if (client->replica() == nullptr ||
        client->replica()->GetAllText() != result.final_text) {
      result.replicas_converged = false;
    }
  }
  return result;
}

std::string ExpectedReplayText(const EditTrace& trace) {
  std::string text = trace.initial_text;
  for (const RecordedEdit& edit : trace.edits) {
    int64_t pos = std::min<int64_t>(edit.pos, static_cast<int64_t>(text.size()));
    if (edit.insert) {
      text.insert(static_cast<size_t>(pos), edit.text);
    } else {
      int64_t len =
          std::min<int64_t>(edit.len, static_cast<int64_t>(text.size()) - pos);
      if (len > 0) {
        text.erase(static_cast<size_t>(pos), static_cast<size_t>(len));
      }
    }
  }
  return text;
}

}  // namespace atk
