#include "src/observability/memory.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace atk {
namespace observability {

std::atomic<bool> g_mem_accounting{true};

void SetMemoryAccountingEnabled(bool enabled) {
  g_mem_accounting.store(enabled, std::memory_order_relaxed);
}

// ---- MemoryAccount ---------------------------------------------------------

MemoryAccount::MemoryAccount(std::string name) : name_(std::move(name)) {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  current_ = &reg.gauge(name_ + "_bytes");
  peak_ = &reg.gauge(name_ + "_peak_bytes");
  charged_ = &reg.counter(name_ + "_charged_bytes");
}

void MemoryAccount::Charge(int64_t bytes) {
  if (bytes == 0 || !MemoryAccountingEnabled()) {
    return;
  }
  MemoryAccountant& accountant = MemoryAccountant::Instance();
  Gauge& total = accountant.total_gauge();
  current_->Add(bytes);
  total.Add(bytes);
  if (bytes > 0) {
    peak_->SetMax(current_->value());
    charged_->Add(static_cast<uint64_t>(bytes));
    accountant.peak_gauge().SetMax(total.value());
  }
}

// ---- MemoryAccountant ------------------------------------------------------

MemoryAccountant::MemoryAccountant() {
  MetricsRegistry& reg = MetricsRegistry::Instance();
  total_ = &reg.gauge("obs.mem.total_bytes");
  peak_ = &reg.gauge("obs.mem.peak_bytes");
}

MemoryAccountant& MemoryAccountant::Instance() {
  static MemoryAccountant* accountant = new MemoryAccountant();
  return *accountant;
}

MemoryAccount& MemoryAccountant::account(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = accounts_.find(name);
  if (it == accounts_.end()) {
    it = accounts_
             .emplace(std::string(name),
                      std::unique_ptr<MemoryAccount>(new MemoryAccount(std::string(name))))
             .first;
  }
  return *it->second;
}

void MemoryAccountant::ResetPeaks() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, account] : accounts_) {
    account->peak_->Set(account->current_->value());
  }
  peak_->Set(total_->value());
}

namespace {

std::atomic<std::vector<CensusRow> (*)()> g_census{nullptr};

}  // namespace

void SetCensusFunction(std::vector<CensusRow> (*census)()) {
  g_census.store(census, std::memory_order_release);
}

MemorySnapshot MemoryAccountant::SnapshotMemory(size_t census_top_n) const {
  MemorySnapshot snap;
  snap.total_bytes = total();
  snap.peak_bytes = peak();
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.accounts.reserve(accounts_.size());
    for (const auto& [name, account] : accounts_) {  // Map order == sorted.
      MemoryAccountSample sample;
      sample.name = name;
      sample.current_bytes = account->current();
      sample.peak_bytes = account->peak();
      sample.charged_bytes = account->charged();
      snap.accounts.push_back(std::move(sample));
    }
  }
  if (auto* census = g_census.load(std::memory_order_acquire)) {
    snap.census = census();
    std::stable_sort(snap.census.begin(), snap.census.end(),
                     [](const CensusRow& a, const CensusRow& b) {
                       if (a.bytes != b.bytes) {
                         return a.bytes > b.bytes;
                       }
                       return a.count > b.count;
                     });
    if (snap.census.size() > census_top_n) {
      snap.census.resize(census_top_n);
    }
  }
  return snap;
}

// ---- Rendering -------------------------------------------------------------

std::string MemoryToText(const MemorySnapshot& snap) {
  std::string out;
  out += "== atk memory snapshot ==\n";
  out += "total " + std::to_string(snap.total_bytes) + " bytes, peak " +
         std::to_string(snap.peak_bytes) + " bytes\n";
  if (!snap.accounts.empty()) {
    out += "-- accounts (current/peak/charged bytes) --\n";
    for (const MemoryAccountSample& account : snap.accounts) {
      out += account.name + " " + std::to_string(account.current_bytes) + "/" +
             std::to_string(account.peak_bytes) + "/" +
             std::to_string(account.charged_bytes) + "\n";
    }
  }
  if (!snap.census.empty()) {
    out += "-- live objects by class --\n";
    for (const CensusRow& row : snap.census) {
      out += row.name + " x" + std::to_string(row.count) + " ~" +
             std::to_string(row.bytes) + " bytes\n";
    }
  }
  return out;
}

// ---- Env wiring ------------------------------------------------------------

namespace {

std::atomic<bool (*)(const std::string&)> g_memsnapshot_writer{nullptr};

// The ATK_MEM_SNAPSHOT destination, latched by MemoryInitFromEnv for the
// atexit hook (getenv at exit is legal but the latch keeps behavior
// identical if the environment mutates mid-run).
std::string& SnapshotPath() {
  static std::string* path = new std::string();
  return *path;
}

void ExitMemSnapshot() {
  const std::string& path = SnapshotPath();
  if (path.empty()) {
    return;
  }
  if (!WriteMemSnapshotFile(path)) {
    std::fprintf(stderr, "atk: failed to write ATK_MEM_SNAPSHOT to %s\n", path.c_str());
  }
}

}  // namespace

void SetMemSnapshotWriter(bool (*writer)(const std::string& path)) {
  g_memsnapshot_writer.store(writer, std::memory_order_release);
}

bool WriteMemSnapshotFile(const std::string& path) {
  if (auto* writer = g_memsnapshot_writer.load(std::memory_order_acquire)) {
    return writer(path);
  }
  // No §5 serializer linked in: fall back to the text rendering so the
  // knob still produces something inspectable.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string text = MemoryToText(MemoryAccountant::Instance().SnapshotMemory());
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void MemoryInitFromEnv() {
  static bool applied = [] {
    if (const char* path = std::getenv("ATK_MEM_SNAPSHOT")) {
      if (path[0] != '\0') {
        SnapshotPath() = path;
        std::atexit(ExitMemSnapshot);
      }
    }
    return true;
  }();
  (void)applied;
}

}  // namespace observability
}  // namespace atk
