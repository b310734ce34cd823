// The compound-document server under load: attach throughput and edit
// fan-out latency with hundreds of concurrent sessions over the framed
// transport (DESIGN.md §9).  Everything runs in-process on the simulated
// link, so the numbers measure the protocol machinery — framing, CRCs,
// go-back-N bookkeeping, observer fan-out — not kernel sockets.
//
// Beyond the wall-time rows, the observability snapshot contributes:
//   histogram/server.fanout.latency_us/p99       — server-side fan-out loop,
//                                                  observed once per flush of
//                                                  a pump's update batch
//   histogram/client.update.lag_ticks/p99        — replica-observed update lag
//   histogram/server.propagation.latency_us/p99  — origin -> last replica,
//                                                  traced runs only
//   gauge/server.bench.attach_sessions_per_sec
//   gauge/server.bench.fanout_p99_us             — end-to-end per-edit p99
//   gauge/server.bench.fanout_traced_p99_us      — same loop with tracing on
//   gauge/server.bench.frames_per_edit           — wire frames per edit in a
//                                                  one-tick burst (BM_BurstFanOut)
// which is where the acceptance numbers live.  BM_EditFanOut_Traced runs the
// identical workload with span recording and flow ids enabled, so the
// traced/untraced ratio is the tracing overhead the perf gates bound.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/components/text/text_data.h"
#include "src/observability/memory.h"
#include "src/server/client_session.h"
#include "src/server/document_server.h"
#include "src/server/transport_sim.h"

namespace atk {
namespace server {
namespace {

using observability::MetricsRegistry;

struct Fleet {
  DocumentServer server;
  std::vector<std::unique_ptr<SimulatedLink>> links;
  std::vector<std::unique_ptr<ClientSession>> clients;

  explicit Fleet(int sessions) {
    auto doc = std::make_unique<TextData>();
    doc->SetText("the andrew toolkit document server benchmark corpus line\n");
    server.HostDocument("bench", std::move(doc));
    links.reserve(sessions);
    clients.reserve(sessions);
    for (int i = 0; i < sessions; ++i) {
      links.push_back(
          std::make_unique<SimulatedLink>(TransportFaultPlan::Clean()));
      server.AttachLink(links.back().get());
      clients.push_back(std::make_unique<ClientSession>(
          "bench-client-" + std::to_string(i), "bench", links.back().get()));
    }
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

  // Connects every client and steps until all of them are synced.
  void Attach() {
    for (auto& client : clients) {
      client->Connect(0);
    }
    int guard = 0;
    while (!AllSynced() && ++guard < 100000) {
      Step();
    }
  }

  bool AllSynced() const {
    for (const auto& client : clients) {
      if (!client->synced()) {
        return false;
      }
    }
    return true;
  }

  bool AllAtVersion(uint64_t version) const {
    for (const auto& client : clients) {
      if (client->applied_version() < version) {
        return false;
      }
    }
    return true;
  }
};

// Inserts "x" at 0, or deletes the character there: alternating the two
// keeps the document's size however many iterations run.
EditOp OneCharEdit(bool insert) {
  EditOp op;
  op.kind = insert ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
  op.pos = 0;
  op.len = 1;
  if (insert) {
    op.text = "x";
  }
  return op;
}

// Cold attach of N sessions: hello -> hello-ack -> snapshot for every
// client, driven to full sync.  One iteration is one whole fleet.
void BM_SessionAttach(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  double attach_seconds = 0;
  int64_t fleets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto fleet = std::make_unique<Fleet>(sessions);
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    fleet->Attach();
    attach_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    ++fleets;
    state.PauseTiming();
    fleet.reset();
    state.ResumeTiming();
  }
  if (attach_seconds > 0) {
    MetricsRegistry::Instance()
        .gauge("server.bench.attach_sessions_per_sec")
        .Set(static_cast<int64_t>(fleets * sessions / attach_seconds));
  }
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_SessionAttach)->Arg(64)->Arg(256);

// One edit fanned out to N attached sessions: submit on client 0, drive the
// transport until every replica applied the versioned update.  The manual
// per-edit timings feed the end-to-end p99 gauge; the in-library
// server.fanout.latency_us histogram captures the server-side loop alone.
// With `traced` the run also allocates a flow id per edit and records the
// full propagation span chain, which is what the workload pays with
// ATK_TRACE=1 ATK_TRACE_FLOWS=1.
void RunEditFanOut(benchmark::State& state, bool traced) {
  const int sessions = static_cast<int>(state.range(0));
  using atk::observability::MemoryAccountant;
  MemoryAccountant& accountant = MemoryAccountant::Instance();
  accountant.ResetPeaks();
  const int64_t mem_before = accountant.total();
  Fleet fleet(sessions);
  fleet.Attach();
  const bool was_tracing = atk::observability::Enabled();
  const bool had_flows = atk::observability::FlowsEnabled();
  if (traced) {
    atk::observability::Tracer::Instance().SetEnabled(true);
    atk::observability::Tracer::Instance().SetFlowsEnabled(true);
  }
  uint64_t version = fleet.server.version("bench");
  bool insert = true;
  std::vector<double> per_edit_ns;
  for (auto _ : state) {
    EditOp op = OneCharEdit(insert);
    insert = !insert;
    auto start = std::chrono::steady_clock::now();
    fleet.clients[0]->SubmitEdit(op);
    ++version;
    int edit_guard = 0;
    while (!fleet.AllAtVersion(version) && ++edit_guard < 100000) {
      fleet.Step();
    }
    per_edit_ns.push_back(
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  if (traced) {
    atk::observability::Tracer::Instance().SetFlowsEnabled(had_flows);
    atk::observability::Tracer::Instance().SetEnabled(was_tracing);
  }
  if (!per_edit_ns.empty()) {
    std::sort(per_edit_ns.begin(), per_edit_ns.end());
    size_t idx = std::min(per_edit_ns.size() - 1,
                          static_cast<size_t>(per_edit_ns.size() * 0.99));
    MetricsRegistry::Instance()
        .gauge(traced ? "server.bench.fanout_traced_p99_us"
                      : "server.bench.fanout_p99_us")
        .SetMax(static_cast<int64_t>(per_edit_ns[idx] / 1000.0));
  }
  // Bytes-per-session gate (perf_baseline.json): peak accounted bytes the whole
  // fleet added over the run, amortized per session.  Skipped when the
  // accountant is off (the Unaccounted overhead variant would record ~0).
  if (!traced && sessions == 256 && atk::observability::MemoryAccountingEnabled()) {
    MetricsRegistry::Instance()
        .gauge("server.bench.session_peak_bytes")
        .Set((accountant.peak() - mem_before + sessions - 1) / sessions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
}

void BM_EditFanOut(benchmark::State& state) { RunEditFanOut(state, false); }
BENCHMARK(BM_EditFanOut)->Arg(64)->Arg(256);

void BM_EditFanOut_Traced(benchmark::State& state) { RunEditFanOut(state, true); }
BENCHMARK(BM_EditFanOut_Traced)->Arg(64)->Arg(256);

// A burst: 8 sessions each submit one insert in the same tick over clean
// links, and the fleet steps until every replica holds the whole burst.
// The server applies the burst in one pump and sends each session one
// kUpdate frame for it, so the wire frames per edit (both directions, acks
// included) stay far below the session count; perf_baseline.json gates
// gauge/server.bench.frames_per_edit.
void BM_BurstFanOut(benchmark::State& state) {
  constexpr int kBurst = 8;
  const int sessions = static_cast<int>(state.range(0));
  Fleet fleet(sessions);
  fleet.Attach();
  observability::Counter& frames =
      MetricsRegistry::Instance().counter("server.frames.sent");
  const uint64_t frames_before = frames.value();
  uint64_t version = fleet.server.version("bench");
  bool insert = true;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      fleet.clients[static_cast<size_t>(i * sessions / kBurst)]->SubmitEdit(
          OneCharEdit(insert));
    }
    insert = !insert;
    version += kBurst;
    int burst_guard = 0;
    while (!fleet.AllAtVersion(version) && ++burst_guard < 100000) {
      fleet.Step();
    }
  }
  if (state.iterations() > 0) {
    MetricsRegistry::Instance()
        .gauge("server.bench.frames_per_edit")
        .Set(static_cast<int64_t>((frames.value() - frames_before) /
                                  (state.iterations() * kBurst)));
  }
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_BurstFanOut)->Arg(64);

// The untraced fan-out with the memory accountant off: a perf gate holds
// BM_EditFanOut/256 within 2% of this run.  The fleet is created and
// destroyed entirely inside the disabled window, so every charge pairs with
// its release and the gauges stay exact when accounting resumes.
void BM_EditFanOut_Unaccounted(benchmark::State& state) {
  atk::observability::SetMemoryAccountingEnabled(false);
  RunEditFanOut(state, false);
  atk::observability::SetMemoryAccountingEnabled(true);
}
BENCHMARK(BM_EditFanOut_Unaccounted)->Arg(256);

}  // namespace
}  // namespace server
}  // namespace atk

ATK_BENCH_MAIN("bench_server");
