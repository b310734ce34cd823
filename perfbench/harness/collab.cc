// collab: 64 ClientSessions edit one document hosted by a DocumentServer,
// each over its own SimulatedLink with a seeded fault plan (drops,
// duplicates, corruption, delays, connection drops).  All in one thread:
// the links are simulated, not sockets.
//
// One op is one burst: 8 distinct sessions each SubmitEdit one uniquely
// tagged insert in the same tick, then the fleet steps (every client Pump,
// the server PumpOnce, every link Tick) until every replica has applied the
// burst, or the fleet has gone quiet without that happening (an edit was
// lost), or a tick cap.  The harness's own completion checks between ticks
// are not timed.
//
// A pass is a fresh fleet running kBurstsPerPass bursts, so that document
// size and fault budgets are the same whatever the speed; the fault budgets
// last the whole pass.  At the end of a pass the fleet drains, every
// replica must be byte-equal to the server, and every submitted tag is
// counted in the server's text: a tag found 0 times or more than once is a
// failed edit (a defect of the program, counted in fail_ratio).
//
// A cycle is kPassesPerCycle passes, each with its own fault seed.  Every
// cycle replays the same bursts from the same seeds, and the simulation is
// deterministic, so each pass must end with the same server text as the
// same pass of the cycle before; that is checked too.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/base/data_object.h"
#include "src/observability/observability.h"
#include "src/robustness/fault_injector.h"
#include "src/server/client_session.h"
#include "src/server/document_server.h"
#include "src/server/transport_sim.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using atk::observability::MetricsRegistry;
using atk::observability::ScopedSpan;
using atk::server::ClientSession;
using atk::server::DocumentServer;
using atk::server::EditOp;
using atk::server::LinkDir;
using atk::server::SimulatedLink;

constexpr const char* kDocName = "shared";
constexpr int kSessions = 64;
constexpr int kBurst = 8;
constexpr int kBurstsPerPass = 128;
constexpr int kPassesPerCycle = 8;
constexpr int kInitialWords = 300;
// TransportFaultPlan::FromSeed budgets a handful of faults per kind.  At its
// per-frame rate they are spent in the first quarter of a pass; a quarter
// of that rate spreads them over the whole pass (about half remain unspent
// at its end).
constexpr double kRateScale = 0.25;
// A burst ends once the fleet has been quiet this many ticks with the burst
// still unapplied: nothing is in flight that could still deliver it.
constexpr int kQuietTicks = 8;
constexpr int kTickCap = 20000;
constexpr int kDrainTicks = 60000;
constexpr char kTagOpen = '[';
constexpr char kTagClose = ']';

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Instance().counter(name).value();
}

atk::TransportFaultPlan PlanFor(uint64_t seed) {
  atk::TransportFaultPlan plan = atk::TransportFaultPlan::FromSeed(seed);
  plan.rate *= kRateScale;
  return plan;
}

struct Fleet {
  DocumentServer server;
  std::vector<std::unique_ptr<SimulatedLink>> links;
  std::vector<std::unique_ptr<ClientSession>> clients;

  Fleet(const std::string& initial_text, uint64_t fault_seed) {
    auto doc = std::make_unique<atk::TextData>();
    doc->SetText(initial_text);
    server.HostDocument(kDocName, std::move(doc));
    for (int i = 0; i < kSessions; ++i) {
      links.push_back(std::make_unique<SimulatedLink>(PlanFor(Mix(fault_seed, i))));
      server.AttachLink(links.back().get());
      clients.push_back(std::make_unique<ClientSession>("client-" + std::to_string(i), kDocName,
                                                        links.back().get()));
      clients.back()->Connect(links.back()->now());
    }
  }

  bool Quiesced() const {
    if (server.pending_frames() != 0 || server.pending_evictions() != 0) {
      return false;
    }
    for (size_t i = 0; i < clients.size(); ++i) {
      if (!clients[i]->attached() || !clients[i]->synced() ||
          clients[i]->channel().pending() != 0 ||
          links[i]->HasDeliverable(LinkDir::kClientToServer) ||
          links[i]->HasDeliverable(LinkDir::kServerToClient)) {
        return false;
      }
    }
    return true;
  }

  // Every replica synced at the server's version.
  bool Converged() const {
    uint64_t version = server.version(kDocName);
    for (const auto& client : clients) {
      if (!client->synced() || client->applied_version() != version) {
        return false;
      }
    }
    return true;
  }

  // Untimed: steps until quiet (set-up and end-of-pass drain).
  bool Settle(int max_ticks) {
    int quiet = 0;
    for (int i = 0; i < max_ticks; ++i) {
      for (size_t c = 0; c < clients.size(); ++c) {
        clients[c]->Pump(links[c]->now());
      }
      server.PumpOnce();
      for (auto& link : links) {
        link->Tick();
      }
      quiet = Quiesced() ? quiet + 1 : 0;
      if (quiet >= kQuietTicks) {
        return true;
      }
    }
    return false;
  }
};

class Collab : public Workload {
 public:
  explicit Collab(uint64_t seed) : seed_(seed) {
    LoadToolkitModules();
    atk::WorkloadRng text_rng(Mix(seed, 6));
    initial_text_ = atk::GenerateProse(text_rng, kInitialWords);
    StartPass();
  }

  size_t cycle_ops() const override { return kPassesPerCycle * kBurstsPerPass; }

  OpSample RunOp() override {
    if (bursts_in_pass_ == kBurstsPerPass) {
      EndPass();
      StartPass();
    }
    Fleet& fleet = *fleet_;
    // Inputs: 8 distinct sessions, a position in each one's replica, a tag.
    std::vector<int> sessions(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      sessions[i] = i;
    }
    std::vector<EditOp> ops;
    for (int i = 0; i < kBurst; ++i) {
      std::swap(sessions[i], sessions[i + rng_.Below(kSessions - i)]);
      const atk::TextData* replica = fleet.clients[sessions[i]]->replica();
      int64_t size = replica != nullptr ? replica->size() : 0;
      std::string id = "e" + std::to_string(next_tag_++);
      EditOp op;
      op.kind = EditOp::Kind::kInsert;
      op.pos = static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(size + 1)));
      op.text = kTagOpen + id + kTagClose;
      op.len = static_cast<int64_t>(op.text.size());
      ops.push_back(std::move(op));
      tags_in_pass_.push_back(std::move(id));
    }
    uint64_t target = fleet.server.stats().edits_applied + kBurst;
    uint64_t frames_before = CounterValue("server.frames.sent");
    uint64_t retries_before = CounterValue("server.retries.frame");

    uint64_t busy_ns = 0;
    uint64_t t0 = NowNs();
    {
      ScopedSpan span("bench.server.submit");
      for (int i = 0; i < kBurst; ++i) {
        fleet.clients[sessions[i]]->SubmitEdit(std::move(ops[i]));
      }
    }
    busy_ns += NowNs() - t0;
    int ticks = 0;
    int quiet = 0;
    while (ticks < kTickCap) {
      uint64_t start = NowNs();
      {
        ScopedSpan span("bench.server.client_pump");
        for (size_t c = 0; c < fleet.clients.size(); ++c) {
          fleet.clients[c]->Pump(fleet.links[c]->now());
        }
      }
      {
        ScopedSpan span("bench.server.server_pump");
        fleet.server.PumpOnce();
      }
      {
        ScopedSpan span("bench.server.link_tick");
        for (auto& link : fleet.links) {
          link->Tick();
        }
      }
      busy_ns += NowNs() - start;
      ++ticks;
      if (fleet.server.stats().edits_applied >= target && fleet.Converged()) {
        break;
      }
      quiet = fleet.Quiesced() ? quiet + 1 : 0;
      if (quiet >= kQuietTicks) {
        break;
      }
    }
    ++bursts_in_pass_;
    ++bursts_;
    ++tick_counts_[ticks];
    frames_sent_ += CounterValue("server.frames.sent") - frames_before;
    retransmits_ += CounterValue("server.retries.frame") - retries_before;
    OpSample sample;
    sample.latency_us = Us(busy_ns);
    sample.busy_us = sample.latency_us;
    return sample;
  }

  void AbsorbSpans(const std::vector<SpanNode>& tree) override {
    double submit = 0, client_pump = 0, server_pump = 0, link_tick = 0;
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> flows;  // flow -> (origin, last apply end)
    for (size_t i = 0; i < tree.size(); ++i) {
      const SpanInput& span = tree[i].span;
      int index = static_cast<int>(i);
      double us = Us(span.duration_ns);
      if (span.name == "bench.server.submit") {
        submit += us;
      } else if (span.name == "bench.server.client_pump") {
        client_pump += us;
      } else if (span.name == "bench.server.server_pump") {
        server_pump += us;
      } else if (span.name == "bench.server.link_tick") {
        link_tick += us;
      } else if (span.name == "server.edit.apply") {
        edit_apply_self_us_.push_back(Us(FamilySelfNs(tree, index, "server.edit.")));
      } else if (span.name == "server.fanout.update") {
        fanout_self_us_.push_back(Us(FamilySelfNs(tree, index, "server.fanout.")));
      } else if (span.name == "client.update.apply") {
        update_apply_self_us_.push_back(Us(FamilySelfNs(tree, index, "client.update.")));
        if (span.flow != 0) {
          uint64_t& last = flows[span.flow].second;
          last = std::max(last, span.start_ns + span.duration_ns);
        }
      } else if (span.name == "client.edit.submit" && span.flow != 0) {
        flows[span.flow].first = span.start_ns;
      }
    }
    submit_us_.push_back(submit);
    client_pump_us_.push_back(client_pump);
    server_pump_us_.push_back(server_pump);
    link_tick_us_.push_back(link_tick);
    for (const auto& [flow, times] : flows) {
      if (times.first != 0 && times.second > times.first) {
        propagation_us_.push_back(Us(times.second - times.first));
      }
    }
  }

  bool Finish(std::string* why) override {
    EndPass();
    if (diverged_passes_ != 0) {
      *why += " " + std::to_string(diverged_passes_) +
              " passes ended with a replica that differs from the server;";
    }
    if (malformed_passes_ != 0) {
      *why += " " + std::to_string(malformed_passes_) + " passes left a broken tag;";
    }
    if (unrepeated_passes_ != 0) {
      *why += " " + std::to_string(unrepeated_passes_) +
              " passes ended with another text than the same pass of the previous cycle;";
    }
    return diverged_passes_ == 0 && malformed_passes_ == 0 && unrepeated_passes_ == 0;
  }

  uint64_t attempted() const override { return bursts_; }
  uint64_t failed() const override { return failed_bursts_; }

  std::vector<Metric> LayerMetrics() const override {
    double edits = static_cast<double>(submitted_);
    return {
        MedianMetric("server.submit_us", submit_us_),
        MedianMetric("server.client_pump_us", client_pump_us_),
        MedianMetric("server.server_pump_us", server_pump_us_),
        MedianMetric("server.link_tick_us", link_tick_us_),
        Metric{"server.ticks_p50", TicksPercentile(0.50), "count", bursts_},
        Metric{"server.ticks_p99", TicksPercentile(0.99), "count", bursts_},
        RatioMetric("server.frames_sent_per_edit", static_cast<double>(frames_sent_), edits,
                    "count", submitted_),
        RatioMetric("server.retransmits_per_edit", static_cast<double>(retransmits_), edits,
                    "count", submitted_),
        Metric{"server.reconnects", static_cast<double>(reconnects_), "count", passes_},
        Metric{"server.evictions", static_cast<double>(evictions_), "count", passes_},
        Metric{"server.lost_edits", static_cast<double>(lost_), "count", submitted_},
        Metric{"server.duplicate_edits", static_cast<double>(duplicated_), "count", submitted_},
        MedianMetric("server.edit_apply_self_us", edit_apply_self_us_),
        MedianMetric("server.fanout_self_us", fanout_self_us_),
        MedianMetric("client.update_apply_self_us", update_apply_self_us_),
        Metric{"server.propagation_p99_us", PercentileOf(propagation_us_, 0.99).value, "us",
               propagation_us_.size()},
        RatioMetric("fail_ratio", static_cast<double>(lost_ + duplicated_), edits, "ratio",
                    submitted_),
    };
  }

 private:
  // Nearest-rank percentile of ticks per burst, from the histogram.
  double TicksPercentile(double p) const {
    uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(p * bursts_)));
    uint64_t seen = 0;
    for (const auto& [ticks, bursts] : tick_counts_) {
      seen += bursts;
      if (seen >= rank) {
        return ticks;
      }
    }
    return 0.0;
  }

  // Attaches a fresh fleet (faults seeded by the pass's place in the cycle)
  // and waits for every session to sync.  A cycle starts the burst inputs
  // over.
  void StartPass() {
    size_t pass_in_cycle = passes_ % kPassesPerCycle;
    if (pass_in_cycle == 0) {
      rng_ = atk::WorkloadRng(Mix(seed_, 5));
      next_tag_ = 0;
    }
    fleet_.reset();
    fleet_ = std::make_unique<Fleet>(initial_text_, Mix(seed_, 1000 + pass_in_cycle));
    if (!fleet_->Settle(kDrainTicks)) {
      ++diverged_passes_;
    }
    bursts_in_pass_ = 0;
    tags_in_pass_.clear();
  }

  // Drains the fleet, checks every replica against the server and counts
  // the pass's tags in the server's text.
  void EndPass() {
    if (fleet_ == nullptr || bursts_in_pass_ == 0) {
      return;
    }
    Fleet& fleet = *fleet_;
    bool settled = fleet.Settle(kDrainTicks);
    const atk::TextData* authoritative = fleet.server.document(kDocName);
    std::string server_bytes = atk::WriteDocument(*authoritative);
    bool converged = settled;
    for (const auto& client : fleet.clients) {
      if (client->replica() == nullptr || atk::WriteDocument(*client->replica()) != server_bytes) {
        converged = false;
      }
      reconnects_ += client->stats().reconnects;
    }
    if (!converged) {
      ++diverged_passes_;
    }
    if (bursts_in_pass_ == kBurstsPerPass) {
      std::string& last = pass_texts_[passes_ % kPassesPerCycle];
      if (!last.empty() && last != server_bytes) {
        ++unrepeated_passes_;
      }
      last = std::move(server_bytes);
    }
    evictions_ += fleet.server.stats().sessions_evicted;
    bool malformed = false;
    TagCensus census =
        CensusOf(CountTags(authoritative->GetAllText(), kTagOpen, kTagClose, &malformed),
                 tags_in_pass_);
    if (malformed) {
      ++malformed_passes_;
    }
    if (malformed || !converged) {
      failed_bursts_ += static_cast<uint64_t>(bursts_in_pass_);
    }
    submitted_ += census.submitted;
    lost_ += census.lost;
    duplicated_ += census.duplicated;
    ++passes_;
    bursts_in_pass_ = 0;
  }

  uint64_t seed_;
  atk::WorkloadRng rng_;
  std::string initial_text_;
  std::unique_ptr<Fleet> fleet_;
  int bursts_in_pass_ = 0;
  std::vector<std::string> tags_in_pass_;
  uint64_t next_tag_ = 0;

  size_t passes_ = 0;
  int diverged_passes_ = 0;
  int malformed_passes_ = 0;
  int unrepeated_passes_ = 0;
  uint64_t failed_bursts_ = 0;
  std::string pass_texts_[kPassesPerCycle];  // Server text at the end of each pass.
  uint64_t submitted_ = 0;
  uint64_t lost_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t evictions_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t bursts_ = 0;
  std::map<int, uint64_t> tick_counts_;  // Ticks per burst -> bursts.

  std::vector<double> submit_us_;
  std::vector<double> client_pump_us_;
  std::vector<double> server_pump_us_;
  std::vector<double> link_tick_us_;
  std::vector<double> edit_apply_self_us_;
  std::vector<double> fanout_self_us_;
  std::vector<double> update_apply_self_us_;
  std::vector<double> propagation_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeCollab(uint64_t seed) { return std::make_unique<Collab>(seed); }

}  // namespace perfbench
