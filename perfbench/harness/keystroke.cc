// keystroke: one user types into a long styled compound document in a
// 640x480 itc window.  One op is a key press dispatched through the
// InteractionManager followed by the RunOnce that puts it on the screen.
//
// The key script is seeded: words of letters and spaces, about one
// backspace per nine keys, and every ~40 keys a jump to a random line
// (ScrollToUnit + SetDot + RunOnce), timed on its own and not as an op.  A
// string oracle replays the script; the caret is checked after every op and
// the whole text at the end of every cycle.
//
// A cycle is kCycleKeys keys typed into a freshly generated document and
// window; every cycle replays the same script on the same document.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/base/interaction_manager.h"
#include "src/components/text/text_view.h"
#include "src/observability/observability.h"
#include "src/wm/window_system.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using atk::observability::MetricsRegistry;
using atk::observability::ScopedSpan;

constexpr int kWidth = 640;
constexpr int kHeight = 480;
// GenerateDocument writes 40 words per paragraph: ~20k words, ~145 KB.
constexpr int kParagraphs = 500;
constexpr int kTables = 3;
constexpr int kDrawings = 3;
constexpr int kBackspaceOneIn = 9;
constexpr int kJumpOneIn = 40;
constexpr size_t kCycleKeys = 1000;

class Keystroke : public Workload {
 public:
  explicit Keystroke(uint64_t seed) : seed_(seed) {
    LoadToolkitModules();
    StartCycle();
  }

  ~Keystroke() override { TearDown(); }

  size_t cycle_ops() const override { return kCycleKeys; }

  OpSample RunOp() override {
    if (keys_in_cycle_ == kCycleKeys) {
      EndCycle();
      StartCycle();
    }
    ++keys_in_cycle_;
    OpSample sample;
    if (script_rng_.Below(kJumpOneIn) == 0) {
      sample.busy_us += Us(Jump());
    }
    char key = NextKey();
    uint64_t layouts = view_->layout_count();
    uint64_t reused = view_->layout_lines_reused();
    atk::InteractionManager::Stats before = im_->stats();
    uint64_t clip_reuse = ClipReuse();
    uint64_t t0 = NowNs();
    {
      ScopedSpan span("bench.base.dispatch");
      im_->ProcessEvent(atk::InputEvent::KeyPress(key));
    }
    uint64_t t1 = NowNs();
    const atk::Region& damage = im_->pending_damage();
    if (!damage.IsEmpty()) {
      ++cycles_;
      damage_rects_ += damage.rect_count();
      region_bands_.push_back(static_cast<double>(damage.band_count()));
    }
    uint64_t t2 = NowNs();
    {
      ScopedSpan span("bench.base.runonce");
      im_->RunOnce();
    }
    uint64_t t3 = NowNs();
    sample.latency_us = Us((t1 - t0) + (t3 - t2));
    sample.busy_us += sample.latency_us;
    ++ops_;
    layouts_ += view_->layout_count() - layouts;
    lines_reused_ += view_->layout_lines_reused() - reused;
    damage_posted_ += im_->stats().damage_posts - before.damage_posts;
    views_updated_ += im_->stats().views_updated - before.views_updated;
    clip_reuse_ += ClipReuse() - clip_reuse;
    ApplyToOracle(key);
    if (view_->dot_pos() != caret_ || doc_->size() != static_cast<int64_t>(oracle_.size())) {
      ++failed_;
    }
    return sample;
  }

  void AbsorbSpans(const std::vector<SpanNode>& tree) override {
    for (size_t i = 0; i < tree.size(); ++i) {
      const SpanNode& node = tree[i];
      const std::string& name = node.span.name;
      if (name == "bench.base.dispatch") {
        dispatch_us_.push_back(Us(node.span.duration_ns));
      } else if (name == "bench.text.jump") {
        jump_us_.push_back(Us(node.span.duration_ns));
      } else if (name == "bench.base.runonce") {
        runonce_us_.push_back(Us(node.span.duration_ns));
        uint64_t cycle_ns = 0;
        for (int child : node.children) {
          const SpanNode& cycle = tree[static_cast<size_t>(child)];
          if (cycle.span.name != "im.update.cycle") {
            continue;
          }
          cycle_ns += cycle.span.duration_ns;
          update_cycle_self_us_.push_back(Us(FamilySelfNs(tree, child, "im.update.")));
          uint64_t draw_ns = 0;
          for (int view : cycle.children) {
            draw_ns += FamilySelfNs(tree, view, "update.");
          }
          view_draw_self_us_.push_back(Us(draw_ns));
        }
        flush_us_.push_back(Us(node.span.duration_ns - cycle_ns));
      }
    }
  }

  bool Finish(std::string* why) override {
    EndCycle();
    bool ok = true;
    if (wrong_cycles_ != 0) {
      *why += " " + std::to_string(wrong_cycles_) +
              " cycles ended with a text that differs from the key-script oracle;";
      ok = false;
    }
    if (failed_ != 0) {
      *why += " caret or size diverged from the oracle on " + std::to_string(failed_) + " ops;";
      ok = false;
    }
    return ok;
  }

  uint64_t attempted() const override { return ops_; }
  uint64_t failed() const override { return failed_; }

  std::vector<Metric> LayerMetrics() const override {
    double ops = static_cast<double>(ops_);
    return {
        MedianMetric("base.dispatch_us", dispatch_us_),
        MedianMetric("base.runonce_us", runonce_us_),
        MedianMetric("base.update_cycle_self_us", update_cycle_self_us_),
        MedianMetric("graphics.view_draw_self_us", view_draw_self_us_),
        MedianMetric("wm.flush_us", flush_us_),
        RatioMetric("text.layouts_per_op", static_cast<double>(layouts_), ops, "count", ops_),
        RatioMetric("text.layout_lines_reused_per_op", static_cast<double>(lines_reused_), ops,
                    "count", ops_),
        RatioMetric("base.damage_posted_per_op", static_cast<double>(damage_posted_), ops,
                    "count", ops_),
        RatioMetric("base.damage_rects_per_cycle", static_cast<double>(damage_rects_),
                    static_cast<double>(cycles_), "count", cycles_),
        RatioMetric("base.views_updated_per_op", static_cast<double>(views_updated_), ops,
                    "count", ops_),
        RatioMetric("base.clip_reuse_ratio", static_cast<double>(clip_reuse_),
                    static_cast<double>(views_updated_), "ratio", views_updated_),
        Metric{"graphics.region_bands_p99", PercentileOf(region_bands_, 0.99).value, "count",
               region_bands_.size()},
        MedianMetric("text.jump_us", jump_us_),
        RatioMetric("fail_ratio", static_cast<double>(failed_), ops, "ratio", ops_),
    };
  }

 private:
  // Generates the document, opens the window and resets the key script:
  // the same state at the start of every cycle.
  void StartCycle() {
    script_rng_ = atk::WorkloadRng(Mix(seed_, 2));
    atk::WorkloadRng doc_rng(Mix(seed_, 1));
    atk::CompoundDocumentSpec spec;
    spec.paragraphs = kParagraphs;
    spec.tables = kTables;
    spec.drawings = kDrawings;
    spec.equations = 0;
    doc_ = atk::GenerateCompoundDocument(doc_rng, spec);
    jump_phase_ = script_rng_.Unit();
    word_left_ = 0;
    oracle_ = doc_->GetAllText();
    ws_ = atk::WindowSystem::Open("itc");
    im_ = atk::InteractionManager::Create(*ws_, kWidth, kHeight, "keystroke");
    view_ = std::make_unique<atk::TextView>();
    view_->SetText(doc_.get());
    im_->SetChild(view_.get());
    im_->SetInputFocus(view_.get());
    im_->RunOnce();
    Jump();
    keys_in_cycle_ = 0;
  }

  // Checks the cycle's text against the oracle and closes the window.
  void EndCycle() {
    if (doc_ != nullptr && doc_->GetAllText() != oracle_) {
      ++wrong_cycles_;
    }
    TearDown();
  }

  void TearDown() {
    if (im_ != nullptr) {
      im_->SetChild(nullptr);
    }
    if (view_ != nullptr) {
      view_->SetText(nullptr);
    }
    view_.reset();
    im_.reset();
    ws_.reset();
    doc_.reset();
  }

  static uint64_t ClipReuse() {
    return MetricsRegistry::Instance().counter("im.update.clip_reuse").value();
  }

  // Moves caret and view to a random line and repaints; returns the time.
  // Successive jumps step by the golden ratio through the document from a
  // seeded offset, with a seeded jitter, so every run covers the whole
  // document evenly however many jumps it makes.
  uint64_t Jump() {
    constexpr double kGolden = 0.6180339887498949;
    jump_phase_ = std::fmod(jump_phase_ + kGolden, 1.0);
    double where = std::fmod(jump_phase_ + 0.05 * script_rng_.Unit(), 1.0);
    int64_t line = static_cast<int64_t>(where * static_cast<double>(doc_->LineCount()));
    caret_ = doc_->PosOfLine(line);
    uint64_t t0 = NowNs();
    {
      ScopedSpan span("bench.text.jump");
      view_->ScrollToUnit(line);
      view_->SetDot(caret_);
      im_->RunOnce();
    }
    return NowNs() - t0;
  }

  char NextKey() {
    if (script_rng_.Below(kBackspaceOneIn) == 0) {
      return '\b';
    }
    if (word_left_ == 0) {
      word_left_ = script_rng_.IntIn(2, 9);
      return ' ';
    }
    --word_left_;
    return static_cast<char>('a' + script_rng_.Below(26));
  }

  void ApplyToOracle(char key) {
    if (key == '\b') {
      if (caret_ > 0) {
        oracle_.erase(static_cast<size_t>(caret_ - 1), 1);
        --caret_;
      }
      return;
    }
    oracle_.insert(static_cast<size_t>(caret_), 1, key);
    ++caret_;
  }

  uint64_t seed_;
  atk::WorkloadRng script_rng_;
  std::unique_ptr<atk::TextData> doc_;
  std::unique_ptr<atk::WindowSystem> ws_;
  std::unique_ptr<atk::InteractionManager> im_;
  std::unique_ptr<atk::TextView> view_;

  std::string oracle_;
  int64_t caret_ = 0;
  double jump_phase_ = 0.0;
  int word_left_ = 0;
  size_t keys_in_cycle_ = 0;
  int wrong_cycles_ = 0;

  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  uint64_t layouts_ = 0;
  uint64_t lines_reused_ = 0;
  uint64_t damage_posted_ = 0;
  uint64_t views_updated_ = 0;
  uint64_t cycles_ = 0;
  uint64_t damage_rects_ = 0;
  uint64_t clip_reuse_ = 0;
  std::vector<double> region_bands_;

  std::vector<double> dispatch_us_;
  std::vector<double> runonce_us_;
  std::vector<double> update_cycle_self_us_;
  std::vector<double> view_draw_self_us_;
  std::vector<double> flush_us_;
  std::vector<double> jump_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeKeystroke(uint64_t seed) { return std::make_unique<Keystroke>(seed); }

}  // namespace perfbench
