// Ablations for the design choices DESIGN.md §5 calls out: what the paper's
// architecture buys relative to the obvious simpler alternative.
//
//   * delayed update (coalesced damage) vs immediate update-per-change;
//   * gap buffer vs a naive contiguous string buffer;
//   * damage as a disjoint Region vs a single bounding rectangle
//     (overdraw measured in repainted pixels and in the time to fill them);
//   * keymap-chain key dispatch vs proc-table lookup by composed name.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/base/proctable.h"
#include "src/class_system/loader.h"
#include "src/components/text/gap_buffer.h"
#include "src/components/text/text_view.h"
#include "src/graphics/pixel_image.h"
#include "src/graphics/region.h"
#include "src/wm/window_system.h"
#include "src/workload/workload.h"

namespace atk {
namespace {

void LoadModules() {
  static bool done = [] {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    return true;
  }();
  (void)done;
}

// ---- Delayed vs immediate update ----------------------------------------------

void BM_Update_DelayedCoalesced(benchmark::State& state) {
  LoadModules();
  int edits = static_cast<int>(state.range(0));
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 300, "delayed");
  TextData text;
  WorkloadRng rng(1);
  text.SetText(GenerateProse(rng, 200));
  TextView view;
  view.SetText(&text);
  im->SetChild(&view);
  im->SetInputFocus(&view);
  im->RunOnce();
  for (auto _ : state) {
    for (int i = 0; i < edits; ++i) {
      im->ProcessEvent(InputEvent::KeyPress('a'));  // Damage accumulates...
    }
    im->RunOnce();  // ...and is repainted once (the paper's §2 design).
  }
  state.SetItemsProcessed(state.iterations() * edits);
  view.SetText(nullptr);
}
BENCHMARK(BM_Update_DelayedCoalesced)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_Update_ImmediatePerChange(benchmark::State& state) {
  LoadModules();
  int edits = static_cast<int>(state.range(0));
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 300, "immediate");
  TextData text;
  WorkloadRng rng(1);
  text.SetText(GenerateProse(rng, 200));
  TextView view;
  view.SetText(&text);
  im->SetChild(&view);
  im->SetInputFocus(&view);
  im->RunOnce();
  for (auto _ : state) {
    for (int i = 0; i < edits; ++i) {
      im->ProcessEvent(InputEvent::KeyPress('a'));
      im->RunUpdateCycle();  // The ablated design: repaint on every change.
    }
    im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations() * edits);
  view.SetText(nullptr);
}
BENCHMARK(BM_Update_ImmediatePerChange)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// ---- Gap buffer vs naive string ------------------------------------------------

void BM_Buffer_GapBufferEditingBurst(benchmark::State& state) {
  int64_t doc = state.range(0);
  GapBuffer buffer;
  buffer.Insert(0, std::string(static_cast<size_t>(doc), 'x'));
  int64_t caret = doc / 2;
  for (auto _ : state) {
    // A burst of 64 local edits, the common editing pattern.
    for (int i = 0; i < 64; ++i) {
      buffer.Insert(caret, "y");
      ++caret;
    }
    for (int i = 0; i < 64; ++i) {
      --caret;
      buffer.Delete(caret, 1);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
  state.counters["doc_bytes"] = static_cast<double>(doc);
}
BENCHMARK(BM_Buffer_GapBufferEditingBurst)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Buffer_NaiveStringEditingBurst(benchmark::State& state) {
  size_t doc = static_cast<size_t>(state.range(0));
  std::string buffer(doc, 'x');
  size_t caret = doc / 2;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      buffer.insert(caret, 1, 'y');
      ++caret;
    }
    for (int i = 0; i < 64; ++i) {
      --caret;
      buffer.erase(caret, 1);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
  state.counters["doc_bytes"] = static_cast<double>(doc);
}
BENCHMARK(BM_Buffer_NaiveStringEditingBurst)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// ---- Region vs bounding-rect damage ----------------------------------------------
// Two small damage spots in opposite corners of a 1000x700 window: the Region
// repaints two patches; a bounds-only design repaints (nearly) the whole
// window.  Each iteration does the bookkeeping and then fills the pixels the
// damage covers, so the pair times the repaint each design pays for.

void BM_Damage_DisjointRegion(benchmark::State& state) {
  PixelImage window(1000, 700);
  const Rect top_left{0, 0, 32, 32};
  const Rect bottom_right{window.width() - 32, window.height() - 32, 32, 32};
  Region region;
  int64_t repainted = 0;
  bool dark = false;
  for (auto _ : state) {
    region.Clear();
    region.Add(top_left);
    region.Add(bottom_right);
    dark = !dark;
    for (const Rect& rect : region.rects()) {
      window.FillRect(rect, dark ? kBlack : kWhite);
    }
    repainted = region.Area();
    benchmark::DoNotOptimize(window);
    benchmark::ClobberMemory();
  }
  state.counters["pixels_repainted"] = static_cast<double>(repainted);
}
BENCHMARK(BM_Damage_DisjointRegion);

void BM_Damage_BoundingRectOnly(benchmark::State& state) {
  PixelImage window(1000, 700);
  const Rect top_left{0, 0, 32, 32};
  const Rect bottom_right{window.width() - 32, window.height() - 32, 32, 32};
  int64_t repainted = 0;
  bool dark = false;
  for (auto _ : state) {
    Rect bounds;
    bounds = bounds.Union(top_left);
    bounds = bounds.Union(bottom_right);
    dark = !dark;
    window.FillRect(bounds, dark ? kBlack : kWhite);
    repainted = bounds.Area();
    benchmark::DoNotOptimize(window);
    benchmark::ClobberMemory();
  }
  state.counters["pixels_repainted"] = static_cast<double>(repainted);
}
BENCHMARK(BM_Damage_BoundingRectOnly);

// ---- Key dispatch: keymap chain vs flat proc lookup ---------------------------------

void BM_Keys_SequenceThroughKeymapChain(benchmark::State& state) {
  LoadModules();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 200, 100, "keys");
  TextData text;
  text.SetText("x");
  TextView view;
  view.SetText(&text);
  im->SetChild(&view);
  im->SetInputFocus(&view);
  im->RunOnce();
  for (auto _ : state) {
    im->ProcessEvent(InputEvent::KeyPress(Ctl('f')));  // Bound: forward-char.
    im->ProcessEvent(InputEvent::KeyPress(Ctl('b')));  // Bound: backward-char.
  }
  state.SetItemsProcessed(state.iterations() * 2);
  view.SetText(nullptr);
}
BENCHMARK(BM_Keys_SequenceThroughKeymapChain);

void BM_Keys_DirectProcInvoke(benchmark::State& state) {
  LoadModules();
  TextData text;
  text.SetText("x");
  TextView view;
  view.SetText(&text);
  for (auto _ : state) {
    ProcTable::Instance().Invoke("textview-forward-char", &view);
    ProcTable::Instance().Invoke("textview-backward-char", &view);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  view.SetText(nullptr);
}
BENCHMARK(BM_Keys_DirectProcInvoke);

}  // namespace
}  // namespace atk

ATK_BENCH_MAIN("bench_ablation");
