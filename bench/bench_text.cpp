// E5 — the text component under editing load: gap-buffer primitives, insert
// and delete at the caret, layout and redraw as documents grow, style-run
// maintenance, and both view types (semi-WYSIWYG and paged) over one buffer
// — the editor that displaced emacs at the ITC (§9).

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/text/gap_buffer.h"
#include "src/components/text/paged_text_view.h"
#include "src/components/text/text_view.h"
#include "src/wm/window_system.h"
#include "src/workload/workload.h"

namespace atk {
namespace {

void Setup() {
  static bool done = [] {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    return true;
  }();
  (void)done;
}

void BM_GapBufferLocalInsert(benchmark::State& state) {
  GapBuffer buffer;
  int64_t pos = 0;
  for (auto _ : state) {
    buffer.Insert(pos, "x");
    ++pos;
    if (pos > 1 << 20) {
      state.PauseTiming();
      buffer.Delete(0, pos);
      pos = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GapBufferLocalInsert);

void BM_GapBufferRandomInsert(benchmark::State& state) {
  GapBuffer buffer;
  buffer.Insert(0, std::string(1 << 16, 'a'));
  uint64_t seed = 5;
  for (auto _ : state) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    buffer.Insert(static_cast<int64_t>(seed % static_cast<uint64_t>(buffer.size())), "x");
    if (buffer.size() > (1 << 20)) {
      state.PauseTiming();
      buffer.Delete(1 << 16, buffer.size() - (1 << 16));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GapBufferRandomInsert);

void BM_TypingIntoViewByDocSize(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 300, "typing");
  TextData text;
  WorkloadRng rng(2);
  text.SetText(GenerateProse(rng, static_cast<int>(state.range(0))));
  TextView view;
  view.SetText(&text);
  im->SetChild(&view);
  im->SetInputFocus(&view);
  im->RunOnce();
  view.SetDot(text.size() / 2);
  for (auto _ : state) {
    // Keystroke -> data change -> notify -> relayout -> clipped repaint.
    im->ProcessEvent(InputEvent::KeyPress('q'));
    im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["doc_chars"] = static_cast<double>(text.size());
  state.counters["layouts"] = static_cast<double>(view.layout_count());
  view.SetText(nullptr);
}
BENCHMARK(BM_TypingIntoViewByDocSize)->Arg(50)->Arg(500)->Arg(5000)->Arg(20000);

// Typing into a styled compound document (headings, bold/italic runs,
// embedded tables and drawings), which BM_TypingIntoViewByDocSize's plain
// prose cannot show: layout resolves a style run for every laid-out
// character and repaints several fonts.
void BM_TypingIntoStyledDoc(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 640, 480, "styled");
  WorkloadRng rng(7);
  CompoundDocumentSpec spec;
  spec.paragraphs = 500;
  spec.tables = 3;
  spec.drawings = 3;
  spec.equations = 0;
  std::unique_ptr<TextData> doc = GenerateCompoundDocument(rng, spec);
  TextView view;
  view.SetText(doc.get());
  im->SetChild(&view);
  im->SetInputFocus(&view);
  im->RunOnce();
  // Caret mid-document with its paragraph scrolled to the top of the view,
  // as after a jump; typing words and spaces re-wraps that paragraph like
  // prose however many iterations run.
  const std::string_view keys = "the quick brown fox jumps over the lazy dog ";
  size_t index = 0;
  const int64_t caret = doc->size() / 2;
  view.ScrollToUnit(doc->LineOfPos(caret));
  view.SetDot(caret);
  im->RunOnce();
  for (auto _ : state) {
    im->ProcessEvent(InputEvent::KeyPress(keys[index++ % keys.size()]));
    im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["doc_chars"] = static_cast<double>(doc->size());
  state.counters["style_runs"] = static_cast<double>(doc->style_runs().size());
  view.SetText(nullptr);
}
BENCHMARK(BM_TypingIntoStyledDoc);

void BM_LayoutOnlyByDocSize(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 300, "layout");
  TextData text;
  WorkloadRng rng(2);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, static_cast<int>(state.range(0)));
  TextView view;
  view.SetText(doc.get());
  im->SetChild(&view);
  im->RunOnce();
  for (auto _ : state) {
    view.Layout();  // Marks dirty...
    im->RunOnce();  // ...and re-lays-out + repaints once.
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["paragraphs"] = static_cast<double>(state.range(0));
  view.SetText(nullptr);
  (void)text;
}
BENCHMARK(BM_LayoutOnlyByDocSize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_StyleRunMaintenance(benchmark::State& state) {
  Setup();
  TextData text;
  WorkloadRng rng(4);
  text.SetText(GenerateProse(rng, 2000));
  uint64_t seed = 77;
  for (auto _ : state) {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    int64_t pos = static_cast<int64_t>(seed % static_cast<uint64_t>(text.size() - 40));
    text.ApplyStyle(pos, 24, (seed & 1) != 0 ? "bold" : "italic");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["final_runs"] = static_cast<double>(text.style_runs().size());
}
BENCHMARK(BM_StyleRunMaintenance);

void BM_ScrollThroughLongDocument(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 300, "scroll");
  WorkloadRng rng(6);
  std::unique_ptr<TextData> doc = GenerateDocument(rng, 128);
  TextView view;
  view.SetText(doc.get());
  im->SetChild(&view);
  im->RunOnce();
  int64_t line = 0;
  int64_t total = doc->LineCount();
  for (auto _ : state) {
    line = (line + 7) % total;
    view.ScrollToUnit(line);
    im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations());
  view.SetText(nullptr);
}
BENCHMARK(BM_ScrollThroughLongDocument);

void BM_BothViewTypesOneBuffer(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto editor_im = InteractionManager::Create(*ws, 300, 200, "editor");
  auto page_im = InteractionManager::Create(*ws, 300, 260, "page");
  TextData shared;
  WorkloadRng rng(8);
  shared.SetText(GenerateProse(rng, 400));
  TextView editor;
  PagedTextView page;
  editor.SetText(&shared);
  page.SetText(&shared);
  editor_im->SetChild(&editor);
  page_im->SetChild(&page);
  editor_im->RunOnce();
  page_im->RunOnce();
  for (auto _ : state) {
    editor.SetDot(shared.size() / 2);
    editor.SelfInsert('z');
    editor_im->RunOnce();
    page_im->RunOnce();  // Both windows repaint from the one change.
  }
  state.SetItemsProcessed(state.iterations());
  editor.SetText(nullptr);
  page.SetText(nullptr);
}
BENCHMARK(BM_BothViewTypesOneBuffer);

void BM_EmacsStyleCommandMix(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  auto im = InteractionManager::Create(*ws, 400, 300, "commands");
  TextData text;
  WorkloadRng rng(9);
  text.SetText(GenerateProse(rng, 1000));
  TextView view;
  view.SetText(&text);
  im->SetChild(&view);
  im->SetInputFocus(&view);
  im->RunOnce();
  const char commands[] = {Ctl('f'), Ctl('f'), Ctl('n'), 'a',      Ctl('b'),
                           Ctl('d'), Ctl('e'), Ctl('a'), Ctl('p'), 'b'};
  size_t index = 0;
  for (auto _ : state) {
    im->ProcessEvent(InputEvent::KeyPress(commands[index % sizeof(commands)]));
    ++index;
    im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations());
  view.SetText(nullptr);
}
BENCHMARK(BM_EmacsStyleCommandMix);

}  // namespace
}  // namespace atk

ATK_BENCH_MAIN("bench_text");
