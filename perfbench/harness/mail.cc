// mail: a messages-style cycle over a seeded corpus, composed from public
// calls the way RunMailCorpus does so that each call can be timed.  One op
// takes one message through WriteDocument, DataStreamSalvager::Salvage (for
// the corrupted quarter), ReadDocument, WriteDocument again, ReadDocument
// again and MailStore::Deliver.
//
// Half the messages embed a table, drawing or raster; a quarter were
// damaged with FaultInjector during set-up.  Clean messages must
// round-trip byte-identically and be delivered; salvaged ones must parse.
// The store must take exactly the 7-bit bodies: a salvaged message that
// kept an 8-bit byte is refused, which the per-layer fail_ratio counts.
// Each pass over the corpus (the cycle) delivers into a fresh MailStore,
// whose count is checked.

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/apps/mail_store.h"
#include "src/base/data_object.h"
#include "src/observability/observability.h"
#include "src/robustness/fault_injector.h"
#include "src/robustness/salvage.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using atk::observability::ScopedSpan;

constexpr int kMessages = 1024;
constexpr int kFolders = 4;
constexpr double kEmbedFraction = 0.5;
constexpr double kEquationFraction = 0.3;  // Of the embedding messages.
constexpr double kCorruptFraction = 0.25;
constexpr int kStreamFaults = 2;

struct Message {
  std::unique_ptr<atk::TextData> doc;
  std::string wire;       // WriteDocument(*doc).
  std::string corrupted;  // Damaged copy of `wire`; empty for clean messages.
};

// What one message is made of.  The corpus fixes the proportions exactly
// and shuffles them with the seed, so every seed has the same mix.
struct MessageShape {
  int paragraphs = 1;
  int object = -1;  // -1 none, else 0 table, 1 drawing, 2 raster.
  bool equation = false;
  bool corrupt = false;
};

void Shuffle(std::vector<MessageShape>& items, atk::WorkloadRng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

// kMessages shapes: 1 to 4 paragraphs in equal numbers; half embed one
// object (tables, drawings and rasters in turn, 30 % of them with an
// equation too); a quarter corrupted.  Shuffling between the steps makes
// the three properties independent.
std::vector<MessageShape> CorpusShapes(atk::WorkloadRng& rng) {
  std::vector<MessageShape> shapes(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    shapes[i].paragraphs = 1 + i % 4;
  }
  Shuffle(shapes, rng);
  int embedded = static_cast<int>(kMessages * kEmbedFraction);
  for (int i = 0; i < embedded; ++i) {
    shapes[i].object = i % 3;
    shapes[i].equation = i < static_cast<int>(embedded * kEquationFraction);
  }
  Shuffle(shapes, rng);
  for (int i = 0; i < static_cast<int>(kMessages * kCorruptFraction); ++i) {
    shapes[i].corrupt = true;
  }
  Shuffle(shapes, rng);
  return shapes;
}

std::unique_ptr<atk::TextData> GenerateMessage(atk::WorkloadRng& rng, const MessageShape& shape) {
  atk::CompoundDocumentSpec spec;
  spec.paragraphs = shape.paragraphs;
  spec.tables = shape.object == 0 ? 1 : 0;
  spec.drawings = shape.object == 1 ? 1 : 0;
  spec.rasters = shape.object == 2 ? 1 : 0;
  spec.equations = shape.equation ? 1 : 0;
  return atk::GenerateCompoundDocument(rng, spec);
}

class Mail : public Workload {
 public:
  explicit Mail(uint64_t seed) {
    LoadToolkitModules();
    atk::WorkloadRng rng(Mix(seed, 4));
    std::vector<MessageShape> shapes = CorpusShapes(rng);
    for (int i = 0; i < kMessages; ++i) {
      Message message;
      message.doc = GenerateMessage(rng, shapes[i]);
      message.wire = atk::WriteDocument(*message.doc);
      if (shapes[i].corrupt) {
        atk::FaultInjector injector(atk::FaultPlan::FromSeed(
            Mix(seed, 100 + static_cast<uint64_t>(i)), message.wire.size(), kStreamFaults));
        message.corrupted = injector.Corrupt(message.wire);
      }
      corpus_.push_back(std::move(message));
    }
  }

  size_t cycle_ops() const override { return corpus_.size(); }

  OpSample RunOp() override {
    size_t index = next_++ % corpus_.size();
    if (index == 0) {
      EndPass();
    }
    const Message& message = corpus_[index];
    bool corrupt = !message.corrupted.empty();
    uint64_t busy_ns = 0;
    auto timed = [&busy_ns](const char* span_name, auto&& call) {
      uint64_t t0 = NowNs();
      {
        ScopedSpan span(span_name);
        call();
      }
      busy_ns += NowNs() - t0;
    };

    std::string wire;
    timed("bench.datastream.write", [&] { wire = atk::WriteDocument(*message.doc); });
    std::string body = wire;
    atk::SalvageReport report;
    if (corrupt) {
      timed("bench.robustness.salvage", [&] {
        body = atk::DataStreamSalvager().Salvage(message.corrupted, &report);
      });
    }
    size_t read_size = body.size();
    std::unique_ptr<atk::DataObject> parsed;
    timed("bench.datastream.read", [&] { parsed = atk::ReadDocument(std::move(body)); });
    std::string rewritten;
    std::unique_ptr<atk::DataObject> reread;
    if (parsed != nullptr) {
      timed("bench.datastream.write", [&] { rewritten = atk::WriteDocument(*parsed); });
      std::string input = rewritten;
      timed("bench.datastream.read", [&] { reread = atk::ReadDocument(std::move(input)); });
    }
    atk::MailMessage mail;
    mail.from = "perfbench";
    mail.to = "reader";
    mail.subject = "message " + std::to_string(index);
    mail.body = rewritten;
    std::string folder = "folder-" + std::to_string(index % kFolders);
    bool delivered = false;
    timed("bench.apps.deliver", [&] { delivered = store_->Deliver(folder, std::move(mail)); });
    delivered_in_pass_ += delivered ? 1 : 0;

    ++ops_;
    bytes_written_ += static_cast<double>(wire.size() + rewritten.size());
    bytes_read_ += static_cast<double>(read_size + rewritten.size());
    // The store must take exactly the 7-bit bodies.  A salvaged body that
    // kept an 8-bit byte is refused: a defect of the program, not a wrong
    // output.
    bool ok = wire == message.wire && parsed != nullptr && reread != nullptr &&
              delivered == atk::MailStore::IsMailable(rewritten);
    if (corrupt) {
      ++salvages_;
      quarantined_bytes_ += report.bytes_quarantined;
    } else if (rewritten != message.wire || !delivered) {
      ok = false;
    }
    if (!ok) {
      ++wrong_;
    } else if (!delivered) {
      ++refused_;
    }
    OpSample sample;
    sample.latency_us = Us(busy_ns);
    sample.busy_us = sample.latency_us;
    return sample;
  }

  void AbsorbSpans(const std::vector<SpanNode>& tree) override {
    for (const SpanNode& node : tree) {
      const std::string& name = node.span.name;
      double us = Us(node.span.duration_ns);
      if (name == "bench.datastream.write") {
        write_us_.push_back(us);
        write_total_us_ += us;
      } else if (name == "bench.datastream.read") {
        read_us_.push_back(us);
        read_total_us_ += us;
      } else if (name == "bench.robustness.salvage") {
        salvage_us_.push_back(us);
      } else if (name == "bench.apps.deliver") {
        deliver_us_.push_back(us);
      }
    }
  }

  bool Finish(std::string* why) override {
    EndPass();
    if (wrong_ != 0) {
      *why += " " + std::to_string(wrong_) + " messages failed the mail cycle check;";
    }
    if (miscounted_passes_ != 0) {
      *why += " " + std::to_string(miscounted_passes_) +
              " passes left a store count that differs from the deliveries;";
    }
    return wrong_ == 0 && miscounted_passes_ == 0;
  }

  uint64_t attempted() const override { return ops_; }
  uint64_t failed() const override { return wrong_; }

  std::vector<Metric> LayerMetrics() const override {
    return {
        MedianMetric("datastream.write_us", write_us_),
        RatioMetric("datastream.write_mb_per_s", bytes_written_ / 1e6,
                    write_total_us_ * 1e-6, "MB/s", write_us_.size()),
        MedianMetric("datastream.read_us", read_us_),
        RatioMetric("datastream.read_mb_per_s", bytes_read_ / 1e6, read_total_us_ * 1e-6,
                    "MB/s", read_us_.size()),
        MedianMetric("apps.deliver_us", deliver_us_),
        MedianMetric("robustness.salvage_us", salvage_us_),
        RatioMetric("robustness.quarantined_bytes_per_salvage",
                    static_cast<double>(quarantined_bytes_), static_cast<double>(salvages_),
                    "bytes", salvages_),
        RatioMetric("fail_ratio", static_cast<double>(wrong_ + refused_),
                    static_cast<double>(ops_), "ratio", ops_),
    };
  }

 private:
  // Checks that the store holds every message delivered in the pass just
  // ended, then starts the next pass on an empty store.
  void EndPass() {
    if (store_ != nullptr && store_->total_messages() != delivered_in_pass_) {
      ++miscounted_passes_;
    }
    store_ = std::make_unique<atk::MailStore>();
    delivered_in_pass_ = 0;
  }

  std::vector<Message> corpus_;
  size_t next_ = 0;
  std::unique_ptr<atk::MailStore> store_;
  int delivered_in_pass_ = 0;
  int miscounted_passes_ = 0;

  uint64_t ops_ = 0;
  uint64_t wrong_ = 0;    // Ops whose output failed a check.
  uint64_t refused_ = 0;  // Salvaged messages the store refused as not 7-bit.
  uint64_t salvages_ = 0;
  uint64_t quarantined_bytes_ = 0;
  double bytes_written_ = 0.0;
  double write_total_us_ = 0.0;
  double bytes_read_ = 0.0;
  double read_total_us_ = 0.0;
  std::vector<double> write_us_;
  std::vector<double> read_us_;
  std::vector<double> salvage_us_;
  std::vector<double> deliver_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeMail(uint64_t seed) { return std::make_unique<Mail>(seed); }

}  // namespace perfbench
