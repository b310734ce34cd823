// open: a user opens compound documents full of embedded objects.  One op
// reads a document (ReadDocument), puts a TextView on it in a 640x480 itc
// window and paints it once (SetChild + RunOnce).  Closing the document
// (SetChild(nullptr) and freeing view and data) is timed on its own.
//
// The corpus is seeded: three documents at each of 16, 32, ... 1024
// embedded objects, opened over and over in one seeded order (the cycle).  The objects are TextData
// embedded directly, tables holding a text in a cell, drawings and rasters,
// so nested text objects appear at every size.  Every document must
// re-write byte-identically to its source; that check runs outside the op.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/base/data_object.h"
#include "src/base/interaction_manager.h"
#include "src/components/text/text_view.h"
#include "src/observability/memory.h"
#include "src/observability/observability.h"
#include "src/wm/window_system.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using atk::observability::MemoryAccountant;
using atk::observability::MetricsRegistry;
using atk::observability::ScopedSpan;

constexpr int kWidth = 640;
constexpr int kHeight = 480;
constexpr int kObjectCounts[] = {16, 32, 64, 128, 256, 512, 1024};
constexpr int kDocsPerCount = 3;

struct SourceDoc {
  int objects = 0;
  std::string bytes;
};

std::unique_ptr<atk::DataObject> MakeObject(atk::WorkloadRng& rng, int kind) {
  switch (kind) {
    case 0: {
      auto text = std::make_unique<atk::TextData>();
      text->SetText(atk::GenerateProse(rng, 12));
      return text;
    }
    case 1: {
      std::unique_ptr<atk::TableData> table = atk::GenerateSpreadsheet(rng, 3, 3);
      auto cell = std::make_unique<atk::TextData>();
      cell->SetText(atk::GenerateProse(rng, 8));
      table->SetObject(1, 1, std::move(cell));
      return table;
    }
    case 2:
      return atk::GenerateDrawing(rng, 4, 80, 60);
    default:
      return atk::GenerateRaster(rng, 16, 12);
  }
}

std::string GenerateSource(atk::WorkloadRng& rng, int objects) {
  std::unique_ptr<atk::TextData> doc = atk::GenerateDocument(rng, 4 + objects / 4);
  for (int i = 0; i < objects; ++i) {
    int64_t pos = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(doc->size() + 1)));
    doc->InsertObject(pos, MakeObject(rng, i % 4));
  }
  return atk::WriteDocument(*doc);
}

uint64_t Tokens() {
  return MetricsRegistry::Instance().counter("datastream.reader.tokens").value();
}

class Open : public Workload {
 public:
  explicit Open(uint64_t seed) {
    LoadToolkitModules();
    atk::WorkloadRng rng(Mix(seed, 3));
    for (int objects : kObjectCounts) {
      for (int i = 0; i < kDocsPerCount; ++i) {
        corpus_.push_back(SourceDoc{objects, GenerateSource(rng, objects)});
      }
    }
    for (size_t i = 0; i < corpus_.size(); ++i) {
      order_.push_back(i);
    }
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.Below(i)]);
    }
    ws_ = atk::WindowSystem::Open("itc");
    im_ = atk::InteractionManager::Create(*ws_, kWidth, kHeight, "open");
  }

  size_t cycle_ops() const override { return order_.size(); }

  OpSample RunOp() override {
    current_ = order_[next_++ % order_.size()];
    const SourceDoc& source = corpus_[current_];
    std::string input = source.bytes;
    MemoryAccountant& accountant = MemoryAccountant::Instance();
    accountant.ResetPeaks();
    int64_t live_before = accountant.total();
    uint64_t tokens_before = Tokens();

    uint64_t t0 = NowNs();
    std::unique_ptr<atk::DataObject> root;
    {
      ScopedSpan span("bench.datastream.read");
      root = atk::ReadDocument(std::move(input));
    }
    uint64_t t1 = NowNs();
    mem_peak_per_byte_.push_back(static_cast<double>(accountant.peak() - live_before) /
                                 static_cast<double>(source.bytes.size()));
    tokens_ += Tokens() - tokens_before;
    auto* text = dynamic_cast<atk::TextData*>(root.get());
    std::unique_ptr<atk::TextView> view;
    uint64_t t2 = t1;
    if (text != nullptr) {
      ScopedSpan span("bench.base.first_paint");
      view = std::make_unique<atk::TextView>();
      view->SetText(text);
      im_->SetChild(view.get());
      im_->RunOnce();
      t2 = NowNs();
    }
    ++ops_;
    if (text == nullptr || atk::WriteDocument(*root) != source.bytes) {
      ++failed_;
    }
    uint64_t t3 = NowNs();
    {
      ScopedSpan span("bench.base.close");
      im_->SetChild(nullptr);
      view.reset();
      root.reset();
    }
    uint64_t t4 = NowNs();
    OpSample sample;
    sample.latency_us = Us(t2 - t0);
    sample.busy_us = sample.latency_us + Us(t4 - t3);
    return sample;
  }

  void AbsorbSpans(const std::vector<SpanNode>& tree) override {
    const SourceDoc& source = corpus_[current_];
    for (const SpanNode& node : tree) {
      const std::string& name = node.span.name;
      double us = Us(node.span.duration_ns);
      if (name == "bench.datastream.read") {
        read_us_.push_back(us);
        read_bytes_ += static_cast<double>(source.bytes.size());
        read_total_us_ += us;
        if (source.objects == kObjectCounts[0]) {
          per_object_smallest_.push_back(us / source.objects);
        } else if (source.objects == std::end(kObjectCounts)[-1]) {
          per_object_largest_.push_back(us / source.objects);
        }
      } else if (name == "bench.base.first_paint") {
        first_paint_us_.push_back(us);
      } else if (name == "bench.base.close") {
        close_us_.push_back(us);
      }
    }
  }

  bool Finish(std::string* why) override {
    if (failed_ != 0) {
      *why += " " + std::to_string(failed_) +
              " opens did not re-write byte-identically to their source;";
      return false;
    }
    return true;
  }

  uint64_t attempted() const override { return ops_; }
  uint64_t failed() const override { return failed_; }

  std::vector<Metric> LayerMetrics() const override {
    return {
        MedianMetric("datastream.read_us", read_us_),
        RatioMetric("datastream.read_mb_per_s", read_bytes_ / 1e6, read_total_us_ * 1e-6,
                    "MB/s", read_us_.size()),
        RatioMetric("datastream.tokens_per_op", static_cast<double>(tokens_),
                    static_cast<double>(ops_), "count", ops_),
        RatioMetric("datastream.read_superlinearity", Median(per_object_largest_),
                    Median(per_object_smallest_), "ratio",
                    std::min(per_object_largest_.size(), per_object_smallest_.size())),
        MedianMetric("observability.mem_peak_per_doc_byte", mem_peak_per_byte_, "ratio"),
        MedianMetric("base.first_paint_us", first_paint_us_),
        MedianMetric("base.close_us", close_us_),
        RatioMetric("fail_ratio", static_cast<double>(failed_), static_cast<double>(ops_),
                    "ratio", ops_),
    };
  }

 private:
  std::vector<SourceDoc> corpus_;
  std::vector<size_t> order_;
  size_t next_ = 0;
  size_t current_ = 0;
  std::unique_ptr<atk::WindowSystem> ws_;
  std::unique_ptr<atk::InteractionManager> im_;

  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  uint64_t tokens_ = 0;
  std::vector<double> mem_peak_per_byte_;
  std::vector<double> read_us_;
  double read_bytes_ = 0.0;
  double read_total_us_ = 0.0;
  std::vector<double> per_object_smallest_;
  std::vector<double> per_object_largest_;
  std::vector<double> first_paint_us_;
  std::vector<double> close_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeOpen(uint64_t seed) { return std::make_unique<Open>(seed); }

}  // namespace perfbench
