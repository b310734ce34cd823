// E4 — §8's window-system independence: the same drawing/op stream through
// both simulated backends, request/flush accounting, exposure-recovery cost,
// the cost of the framebuffer clear and blit under every window, and the
// size of the porting surface.  main() first prints the porting
// table ("six classes ... approximately 70 routines").

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include <cstdio>
#include <map>

#include "src/apps/standard_modules.h"
#include "src/base/interaction_manager.h"
#include "src/class_system/loader.h"
#include "src/components/frame/frame_view.h"
#include "src/components/scroll/scrollbar_view.h"
#include "src/components/text/text_view.h"
#include "src/graphics/pixel_image.h"
#include "src/wm/wm_itc.h"
#include "src/wm/wm_x11sim.h"
#include "src/wm/window_system.h"
#include "src/workload/workload.h"

namespace atk {

void PrintPortingSurface() {
  std::vector<std::string> routines = WindowSystem::PortingRoutines();
  std::map<std::string, int> per_class;
  for (const std::string& routine : routines) {
    per_class[routine.substr(0, routine.find(':'))] += 1;
  }
  std::printf("=== E4: the porting surface (six classes, ~70 routines) ===\n");
  for (const auto& [cls, count] : per_class) {
    std::printf("  %-18s %3d routines\n", cls.c_str(), count);
  }
  std::printf("  %-18s %3zu routines total (paper says \"approximately 70\")\n\n", "TOTAL",
              routines.size());
}

namespace {

void Setup() {
  static bool done = [] {
    RegisterStandardModules();
    Loader::Instance().Require("text");
    Loader::Instance().Require("scroll");
    Loader::Instance().Require("frame");
    return true;
  }();
  (void)done;
}

void DrawScene(Graphic* g) {
  g->Clear();
  g->DrawRect(Rect{5, 5, 300, 180});
  g->SetFont(FontSpec{"andy", 10, kPlain});
  for (int i = 0; i < 10; ++i) {
    g->DrawString(Point{10, 10 + i * 14}, "window system independent line of text");
    g->DrawLine(Point{0, i * 20}, Point{319, 199 - i * 20});
  }
  g->FillEllipse(Rect{200, 60, 80, 50});
}

void BM_OpStreamPerBackend(benchmark::State& state) {
  Setup();
  const char* backend = state.range(0) == 0 ? "itc" : "x11";
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open(backend);
  std::unique_ptr<WmWindow> window = ws->CreateWindow(320, 200, "scene");
  for (auto _ : state) {
    DrawScene(window->GetGraphic());
    window->Flush();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(backend);
  state.counters["requests"] = static_cast<double>(window->RequestCount());
}
BENCHMARK(BM_OpStreamPerBackend)->Arg(0)->Arg(1);

void BM_FlushGranularity_X11PerOp(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("x11");
  std::unique_ptr<WmWindow> window = ws->CreateWindow(320, 200, "per-op");
  for (auto _ : state) {
    Graphic* g = window->GetGraphic();
    for (int i = 0; i < 32; ++i) {
      g->DrawLine(Point{0, i}, Point{319, i});
      window->Flush();  // Chatty client: one round trip per request.
    }
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_FlushGranularity_X11PerOp);

void BM_FlushGranularity_X11Batched(benchmark::State& state) {
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("x11");
  std::unique_ptr<WmWindow> window = ws->CreateWindow(320, 200, "batched");
  for (auto _ : state) {
    Graphic* g = window->GetGraphic();
    for (int i = 0; i < 32; ++i) {
      g->DrawLine(Point{0, i}, Point{319, i});
    }
    window->Flush();  // The toolkit's model: one flush per update cycle.
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_FlushGranularity_X11Batched);

// The two framebuffer primitives under every window: one 640x480 clear (what
// a full-window repaint starts with) and one 640x480 blit (what
// X11Window::Flush copies to the screen).
void BM_ClearWindow(benchmark::State& state) {
  PixelImage image(640, 480);
  bool dark = false;
  for (auto _ : state) {
    image.FillRect(image.bounds(), dark ? kBlack : kWhite);
    dark = !dark;
    benchmark::DoNotOptimize(image.GetPixel(639, 479));
  }
  state.SetItemsProcessed(state.iterations() * 640 * 480);
}
BENCHMARK(BM_ClearWindow);

void BM_BlitWindow(benchmark::State& state) {
  PixelImage canvas(640, 480, kGray);
  PixelImage screen(640, 480);
  for (auto _ : state) {
    screen.Blit(canvas, canvas.bounds(), Point{0, 0});
    benchmark::DoNotOptimize(screen.GetPixel(639, 479));
  }
  state.SetItemsProcessed(state.iterations() * 640 * 480);
}
BENCHMARK(BM_BlitWindow);

void BM_ExposureRecovery_X11(benchmark::State& state) {
  // No backing store: obscure/unobscure forces a client repaint.
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("x11");
  TextData text;
  WorkloadRng rng(3);
  text.SetText(GenerateProse(rng, 300));
  TextView view;
  view.SetText(&text);
  auto im = InteractionManager::Create(*ws, 400, 240, "exposed");
  im->SetChild(&view);
  im->RunOnce();
  X11Window* window = ObjectCast<X11Window>(im->window());
  for (auto _ : state) {
    window->Obscure(Rect{80, 60, 200, 120});
    window->Unobscure();
    im->RunOnce();  // Handles the expose event with a clipped repaint.
  }
  state.SetItemsProcessed(state.iterations());
  view.SetText(nullptr);
}
BENCHMARK(BM_ExposureRecovery_X11);

void BM_ExposureRecovery_ItcHasNone(benchmark::State& state) {
  // The ITC wm preserves contents: the same overlap costs only two blits.
  Setup();
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open("itc");
  TextData text;
  WorkloadRng rng(3);
  text.SetText(GenerateProse(rng, 300));
  TextView view;
  view.SetText(&text);
  auto im = InteractionManager::Create(*ws, 400, 240, "preserved");
  im->SetChild(&view);
  im->RunOnce();
  ItcWindow* window = ObjectCast<ItcWindow>(im->window());
  for (auto _ : state) {
    window->Obscure(Rect{80, 60, 200, 120});
    window->Unobscure();
    im->RunOnce();  // No expose event: nothing to repaint.
  }
  state.SetItemsProcessed(state.iterations());
  view.SetText(nullptr);
}
BENCHMARK(BM_ExposureRecovery_ItcHasNone);

void BM_FullAppSessionPerBackend(benchmark::State& state) {
  Setup();
  const char* backend = state.range(0) == 0 ? "itc" : "x11";
  std::unique_ptr<WindowSystem> ws = WindowSystem::Open(backend);
  TextData text;
  TextView view;
  view.SetText(&text);
  ScrollBarView scrollbar;
  scrollbar.SetBody(&view);
  FrameView frame;
  frame.SetBody(&scrollbar);
  auto im = InteractionManager::Create(*ws, 400, 240, "session");
  im->SetChild(&frame);
  im->SetInputFocus(&view);
  im->RunOnce();
  WorkloadRng rng(17);
  std::vector<InputEvent> trace = GenerateEventTrace(rng, 128, 400, 240);
  for (auto _ : state) {
    for (const InputEvent& event : trace) {
      im->window()->Inject(event);
    }
    im->RunOnce();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace.size()));
  state.SetLabel(backend);
  view.SetText(nullptr);
}
BENCHMARK(BM_FullAppSessionPerBackend)->Arg(0)->Arg(1);

}  // namespace
}  // namespace atk

int main(int argc, char** argv) {
  atk::RegisterStandardModules();
  atk::PrintPortingSurface();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  atk_bench::JsonLineReporter reporter{"bench_wm"};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  atk_bench::EmitMetricsSnapshot("bench_wm");
  benchmark::Shutdown();
  return 0;
}
