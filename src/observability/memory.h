// Memory accounting spine — per-subsystem byte tracking under the metrics
// registry (DESIGN.md §8).
//
// The toolkit's bytes live in pools scattered across every layer: gap
// buffers under the text component, the datastream reader's pinned buffer
// and unescape arena, Region band storage, the tracer's per-thread span rings
// (including generations retired by SetCapacity/Clear, which are leaked on
// purpose), and the server channels' send/retransmit queues.  This module
// makes each pool a named account, so the bytes a document or a session
// costs are visible per layer and can be gated by the benches.
//
// Two primitives:
//
//   * MemoryAccount — one named pool.  `name` follows the metric convention
//     as `<layer>.mem.<account>`; the account publishes three metrics in
//     MetricsRegistry: gauge `<name>_bytes` (current), gauge
//     `<name>_peak_bytes` (high-water mark) and counter
//     `<name>_charged_bytes` (cumulative bytes ever charged).  Charge() is
//     a handful of relaxed atomic ops; call sites cache the account
//     reference exactly like they cache Counter references.
//   * ScopedCharge — RAII charge: releases on destruction, transfers on
//     move, and Resize() re-charges the delta when a container grows or
//     shrinks.  The member-object pattern gives a pool owner exact
//     charge/release pairing with no explicit destructor logic.
//
// Every account owns its storage and rolls into the process totals
// (`obs.mem.total_bytes` / `obs.mem.peak_bytes`), which stay comparable to
// an external allocator oracle (tested to within 10% on the 256-paragraph
// corpus).
//
// A live-object census complements the accounts: the DataObject registry in
// src/base installs a census function that reports count/bytes rows by
// class, and SnapshotMemory() folds the top-N rows into a MemorySnapshot.
// src/observability/memsnapshot_component.h serializes that snapshot as a
// `\begindata{memsnapshot,...}` document so a heap census round-trips
// through the §5 reader/writer/salvager like any other component.
//
// Like observability.h, this header depends on nothing but the standard
// library: it sits below class_system so every layer can charge bytes
// without a dependency cycle.

#ifndef ATK_SRC_OBSERVABILITY_MEMORY_H_
#define ATK_SRC_OBSERVABILITY_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/observability/observability.h"

namespace atk {
namespace observability {

// The process-wide accounting switch, exposed directly so Charge() inlines
// its fast path to a relaxed load plus a branch.  On by default; the bench
// harness flips it off to measure the accountant's own overhead (the
// accounted-vs-unaccounted perf gates).  Toggling while charges
// are outstanding skews gauges until the pools turn over — flip it only
// around paired create/destroy cycles.
extern std::atomic<bool> g_mem_accounting;

inline bool MemoryAccountingEnabled() {
  return g_mem_accounting.load(std::memory_order_relaxed);
}

void SetMemoryAccountingEnabled(bool enabled);

// ---- Accounts --------------------------------------------------------------

class MemoryAccountant;

// One named allocation pool.  Create through MemoryAccountant::account();
// the object never moves, so call sites cache a reference in a
// function-local static.
class MemoryAccount {
 public:
  const std::string& name() const { return name_; }

  // Adjusts the pool size by `bytes` (negative to release).  Updates the
  // current/peak gauges, the charged counter and the process totals.
  void Charge(int64_t bytes);
  void Release(int64_t bytes) { Charge(-bytes); }

  int64_t current() const { return current_->value(); }
  int64_t peak() const { return peak_->value(); }
  uint64_t charged() const { return charged_->value(); }

 private:
  friend class MemoryAccountant;
  explicit MemoryAccount(std::string name);

  std::string name_;
  Gauge* current_ = nullptr;   // <name>_bytes
  Gauge* peak_ = nullptr;      // <name>_peak_bytes
  Counter* charged_ = nullptr; // <name>_charged_bytes
};

// RAII charge against one account.  Movable (the charge transfers), not
// copyable.  A default-constructed ScopedCharge is inert; Resize() on it is
// a no-op, so pool owners that charge nothing (a reader borrowing its
// input) stay valid.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  explicit ScopedCharge(MemoryAccount& account, int64_t bytes = 0)
      : account_(&account) {
    Resize(bytes);
  }
  ~ScopedCharge() { Resize(0); }

  ScopedCharge(ScopedCharge&& other) noexcept
      : account_(other.account_), bytes_(other.bytes_) {
    other.account_ = nullptr;
    other.bytes_ = 0;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      Resize(0);
      account_ = other.account_;
      bytes_ = other.bytes_;
      other.account_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  // Re-charges so exactly `bytes` are held (the delta hits the account).
  void Resize(int64_t bytes) {
    if (account_ != nullptr && bytes != bytes_) {
      account_->Charge(bytes - bytes_);
      bytes_ = bytes;
    }
  }
  void Add(int64_t bytes) { Resize(bytes_ + bytes); }

  int64_t bytes() const { return bytes_; }
  bool attached() const { return account_ != nullptr; }

 private:
  MemoryAccount* account_ = nullptr;
  int64_t bytes_ = 0;
};

// ---- Census ----------------------------------------------------------------

// One census row: a class (or pool) name with live-instance count and an
// estimated byte footprint.
struct CensusRow {
  std::string name;
  uint64_t count = 0;
  uint64_t bytes = 0;
};

// ---- Snapshot --------------------------------------------------------------

struct MemoryAccountSample {
  std::string name;
  int64_t current_bytes = 0;
  int64_t peak_bytes = 0;
  uint64_t charged_bytes = 0;
};

struct MemorySnapshot {
  int64_t total_bytes = 0;
  int64_t peak_bytes = 0;
  std::vector<MemoryAccountSample> accounts;  // Sorted by name.
  std::vector<CensusRow> census;              // Top-N by bytes, descending.
};

// ---- Accountant ------------------------------------------------------------

class MemoryAccountant {
 public:
  static MemoryAccountant& Instance();

  // Looks up (creating on first use) the named account.  `name` must follow
  // `<layer>.mem.<account>` (lower-case segments); the `_bytes` metric
  // suffixes are appended here, never by callers.  The same name always
  // yields the same object.
  MemoryAccount& account(std::string_view name);

  // Process totals over every account (mirrors obs.mem.total_bytes /
  // obs.mem.peak_bytes).
  int64_t total() const { return total_gauge().value(); }
  int64_t peak() const { return peak_gauge().value(); }

  // Lowers every peak gauge (accounts and process) to its current value —
  // bench hygiene, so per-phase peaks are measurable.
  void ResetPeaks();

  // Freezes accounts + totals into one snapshot, with the installed census
  // function's rows (largest byte footprint first, at most `census_top_n`).
  MemorySnapshot SnapshotMemory(size_t census_top_n = 16) const;

  // Internal: the shared totals, cached by MemoryAccount.
  Gauge& total_gauge() const { return *total_; }
  Gauge& peak_gauge() const { return *peak_; }

 private:
  MemoryAccountant();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MemoryAccount>, std::less<>> accounts_;
  Gauge* total_ = nullptr;  // obs.mem.total_bytes
  Gauge* peak_ = nullptr;   // obs.mem.peak_bytes
};

// Human-readable rendering of a snapshot (the ATK_MEM_SNAPSHOT fallback
// when no §5 writer is linked in).
std::string MemoryToText(const MemorySnapshot& snapshot);

// The live-object census lives one layer up (the DataObject registry in
// src/base); it installs its row function here, and SnapshotMemory calls it
// with no accountant lock held.  Null (the default) means no census rows.
void SetCensusFunction(std::vector<CensusRow> (*census)());

// The §5 serializer lives one layer up (memsnapshot_component.cc, which
// links the datastream); it installs itself here so the ATK_MEM_SNAPSHOT
// exit hook can write a real memsnapshot document without this module
// depending upward.  The writer returns false when the file could not be
// written.
void SetMemSnapshotWriter(bool (*writer)(const std::string& path));

// Writes the current SnapshotMemory() to `path` through the installed
// writer; falls back to MemoryToText when none is installed.  Returns
// false on failure.
bool WriteMemSnapshotFile(const std::string& path);

// Reads the environment once and applies it (idempotent; called from
// observability::InitFromEnv):
//   ATK_MEM_SNAPSHOT=path     write a memsnapshot document at process exit;
//                             every document is freed by then, so it holds
//                             accounts and totals but no census rows.
void MemoryInitFromEnv();

}  // namespace observability
}  // namespace atk

#endif  // ATK_SRC_OBSERVABILITY_MEMORY_H_
