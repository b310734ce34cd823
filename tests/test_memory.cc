// The memory accounting spine (DESIGN.md §8): accounts and ScopedCharge
// pairing, the `memsnapshot` §5 component and its exit-hook writer, and
// the allocator oracle that keeps the internal totals honest.
//
// This binary replaces global operator new/delete with a live-byte counter
// (a size header in front of every allocation) so the oracle test can
// compare the accountant's exclusive totals against what the allocator
// actually handed out — no platform mallinfo needed, and it works under
// ASan too.  The counter is a pair of relaxed atomics, cheap enough to
// leave on for every test in the binary.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/standard_modules.h"
#include "src/base/data_object.h"
#include "src/class_system/loader.h"
#include "src/components/text/text_data.h"
#include "src/observability/memory.h"
#include "src/observability/memsnapshot_component.h"
#include "src/robustness/salvage.h"
#include "src/workload/workload.h"

namespace {

std::atomic<int64_t> g_allocator_live_bytes{0};

// Size header big enough to keep malloc's max_align_t guarantee.
constexpr size_t kOracleHeader = 16;
static_assert(kOracleHeader >= sizeof(size_t));
static_assert(kOracleHeader % alignof(std::max_align_t) == 0);

void* OracleAlloc(size_t size) {
  void* raw = std::malloc(size + kOracleHeader);
  if (raw == nullptr) {
    return nullptr;
  }
  *static_cast<size_t*>(raw) = size;
  g_allocator_live_bytes.fetch_add(static_cast<int64_t>(size),
                                   std::memory_order_relaxed);
  return static_cast<char*>(raw) + kOracleHeader;
}

void OracleFree(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  void* raw = static_cast<char*>(ptr) - kOracleHeader;
  g_allocator_live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(raw)),
                                   std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

// Over-aligned types fall through to the C++17 aligned overloads (not
// replaced here) — new and delete stay paired per overload set, so the
// counter never sees a half of an allocation.
void* operator new(std::size_t size) {
  void* ptr = OracleAlloc(size);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return OracleAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return OracleAlloc(size);
}
void operator delete(void* ptr) noexcept { OracleFree(ptr); }
void operator delete[](void* ptr) noexcept { OracleFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { OracleFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { OracleFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { OracleFree(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { OracleFree(ptr); }

namespace atk {
namespace {

using observability::CensusRow;
using observability::MemoryAccount;
using observability::MemoryAccountant;
using observability::MemoryAccountSample;
using observability::MemorySnapshot;
using observability::ScopedCharge;

TEST(Memory, ScopedChargePairsResizesAndMoves) {
  MemoryAccountant& accountant = MemoryAccountant::Instance();
  MemoryAccount& account = accountant.account("test.mem.pairing");
  const int64_t base = account.current();
  const int64_t total_base = accountant.total();
  {
    ScopedCharge charge(account, 1000);
    EXPECT_EQ(account.current(), base + 1000);
    EXPECT_EQ(accountant.total(), total_base + 1000);
    charge.Resize(400);
    EXPECT_EQ(account.current(), base + 400);
    charge.Add(100);
    EXPECT_EQ(charge.bytes(), 500);
    // The charge transfers on move: one release, not two.
    ScopedCharge stolen(std::move(charge));
    EXPECT_FALSE(charge.attached());
    EXPECT_TRUE(stolen.attached());
    EXPECT_EQ(account.current(), base + 500);
  }
  EXPECT_EQ(account.current(), base);
  EXPECT_EQ(accountant.total(), total_base);
  EXPECT_GE(account.peak(), base + 1000);
  // A default-constructed charge is inert everywhere.
  ScopedCharge inert;
  inert.Resize(1 << 20);
  EXPECT_EQ(accountant.total(), total_base);
}

MemorySnapshot MakeSampleSnapshot() {
  MemorySnapshot snapshot;
  snapshot.total_bytes = 123456;
  snapshot.peak_bytes = 234567;
  MemoryAccountSample text;
  text.name = "text.mem.gapbuffer";
  text.current_bytes = 65536;
  text.peak_bytes = 131072;
  text.charged_bytes = 999999;
  MemoryAccountSample region;
  region.name = "graphics.mem.region";
  region.current_bytes = 4096;
  region.peak_bytes = 8192;
  region.charged_bytes = 55555;
  snapshot.accounts = {text, region};
  snapshot.census = {{"textdata", 12, 61440}, {"tabledata", 3, 9000}};
  return snapshot;
}

void ExpectSnapshotsEqual(const MemorySnapshot& back, const MemorySnapshot& original) {
  EXPECT_EQ(back.total_bytes, original.total_bytes);
  EXPECT_EQ(back.peak_bytes, original.peak_bytes);
  ASSERT_EQ(back.accounts.size(), original.accounts.size());
  for (size_t i = 0; i < original.accounts.size(); ++i) {
    EXPECT_EQ(back.accounts[i].name, original.accounts[i].name);
    EXPECT_EQ(back.accounts[i].current_bytes, original.accounts[i].current_bytes);
    EXPECT_EQ(back.accounts[i].peak_bytes, original.accounts[i].peak_bytes);
    EXPECT_EQ(back.accounts[i].charged_bytes, original.accounts[i].charged_bytes);
  }
  ASSERT_EQ(back.census.size(), original.census.size());
  for (size_t i = 0; i < original.census.size(); ++i) {
    EXPECT_EQ(back.census[i].name, original.census[i].name);
    EXPECT_EQ(back.census[i].count, original.census[i].count);
    EXPECT_EQ(back.census[i].bytes, original.census[i].bytes);
  }
}

TEST(Memory, MemSnapshotRoundTripsThroughDatastream) {
  MemorySnapshot original = MakeSampleSnapshot();
  std::string serialized = observability::MemSnapshotToDatastream(original);
  EXPECT_NE(serialized.find("\\begindata{memsnapshot,"), std::string::npos);
  EXPECT_NE(serialized.find("\\memmeta{"), std::string::npos);
  EXPECT_NE(serialized.find("\\account{"), std::string::npos);
  EXPECT_NE(serialized.find("\\census{"), std::string::npos);

  MemorySnapshot back;
  Status status = observability::MemSnapshotFromDatastream(serialized, &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSnapshotsEqual(back, original);

  // A healthy census document passes through the salvager untouched.
  SalvageReport report;
  std::string salvaged = DataStreamSalvager().Salvage(serialized, &report);
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(salvaged, serialized);

  // A document written when snapshots still carried a byte budget and an
  // overlay account kind: the retired \memmeta budget and \account
  // overlay fields hold non-zero numbers, which read and are ignored.
  const std::string versioned =
      "\\begindata{memsnapshot,1}\n"
      "\\memmeta{1,1048576,123456,234567}\n"
      "\\account{0,65536,131072,999999,text.mem.gapbuffer}\n"
      "\\account{1,4096,8192,55555,graphics.mem.region}\n"
      "\\census{12,61440,textdata}\n"
      "\\census{3,9000,tabledata}\n"
      "\\enddata{memsnapshot,1}\n";
  MemorySnapshot old;
  status = observability::MemSnapshotFromDatastream(versioned, &old);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSnapshotsEqual(old, original);
}

TEST(Memory, MemSnapshotNumbersOutOfRangeAreCorrupt) {
  auto read = [](const std::string& line) {
    MemorySnapshot out;
    return observability::MemSnapshotFromDatastream(
        "\\begindata{memsnapshot,1}\n" + line + "\n\\enddata{memsnapshot,1}\n", &out);
  };
  // Used to read with total_bytes = +9223372036854775807.
  EXPECT_EQ(read("\\memmeta{1,0,-9223372036854775809,5}").code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("\\memmeta{1,18446744073709551616,0,5}").code(), StatusCode::kCorrupt);
  EXPECT_EQ(read("\\account{0,1,2,18446744073709551616,a.mem.b}").code(),
            StatusCode::kCorrupt);
  EXPECT_TRUE(read("\\memmeta{1,0,-9223372036854775808,5}").ok());
}

TEST(Memory, LiveSnapshotRoundTripsWithCensus) {
  // The real accountant's snapshot (with the DataObject census hooked up)
  // survives the same round trip.  The census counts *decoded* objects, so
  // a document held alive across the snapshot guarantees at least one row.
  RegisterStandardModules();
  Loader::Instance().Require("text");
  auto source = ObjectCast<TextData>(Loader::Instance().NewObject("text"));
  ASSERT_NE(source, nullptr);
  source->SetText("census bait\n");
  std::unique_ptr<DataObject> doc = ReadDocument(WriteDocument(*source));
  ASSERT_NE(doc, nullptr);

  MemorySnapshot live = MemoryAccountant::Instance().SnapshotMemory();
  EXPECT_FALSE(live.accounts.empty());
  EXPECT_FALSE(live.census.empty());

  MemorySnapshot back;
  Status status = observability::MemSnapshotFromDatastream(
      observability::MemSnapshotToDatastream(live), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectSnapshotsEqual(back, live);
}

TEST(Memory, WriteMemSnapshotFileWritesAReadableCensus) {
  // The ATK_MEM_SNAPSHOT exit hook's writer, driven directly: with a decoded
  // document alive, the file it leaves reads back with census rows.
  RegisterStandardModules();
  Loader::Instance().Require("text");
  auto source = ObjectCast<TextData>(Loader::Instance().NewObject("text"));
  ASSERT_NE(source, nullptr);
  source->SetText("exit hook bait\n");
  std::unique_ptr<DataObject> doc = ReadDocument(WriteDocument(*source));
  ASSERT_NE(doc, nullptr);

  const std::string path = ::testing::TempDir() + "atk_memsnapshot_test.atk";
  ASSERT_TRUE(observability::WriteMemSnapshotFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());

  MemorySnapshot back;
  Status status = observability::MemSnapshotFromDatastream(contents.str(), &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(back.accounts.empty());
  EXPECT_FALSE(back.census.empty());

  EXPECT_FALSE(observability::WriteMemSnapshotFile(
      ::testing::TempDir() + "no-such-dir/memsnapshot.atk"));
}

TEST(Memory, CorruptedCensusDocumentSalvages) {
  MemorySnapshot original = MakeSampleSnapshot();
  std::string serialized = observability::MemSnapshotToDatastream(original);

  // Knock the closing brace off one \census directive: damaged through the
  // end of the line.  The raw document no longer parses; the salvager
  // quarantines the damaged directive and the repaired document does,
  // losing only that row.
  size_t census = serialized.find("\\census{");
  ASSERT_NE(census, std::string::npos);
  size_t brace = serialized.find('}', census);
  ASSERT_NE(brace, std::string::npos);
  serialized.erase(brace, 1);

  MemorySnapshot direct;
  EXPECT_FALSE(observability::MemSnapshotFromDatastream(serialized, &direct).ok());

  SalvageReport report;
  std::string salvaged = DataStreamSalvager().Salvage(serialized, &report);
  EXPECT_FALSE(report.clean);
  MemorySnapshot back;
  Status status = observability::MemSnapshotFromDatastream(salvaged, &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(back.total_bytes, original.total_bytes);
  ASSERT_EQ(back.accounts.size(), original.accounts.size());
  EXPECT_LT(back.census.size(), original.census.size());
}

TEST(Memory, TruncatedCensusDocumentSalvages) {
  MemorySnapshot original = MakeSampleSnapshot();
  std::string serialized = observability::MemSnapshotToDatastream(original);

  // Cut the document mid-census (no \enddata).  Direct parse reports
  // Truncated; the salvager closes the open marker.
  size_t census = serialized.rfind("\\census{");
  ASSERT_NE(census, std::string::npos);
  serialized.resize(census);

  MemorySnapshot direct;
  EXPECT_EQ(observability::MemSnapshotFromDatastream(serialized, &direct).code(),
            StatusCode::kTruncated);

  SalvageReport report;
  std::string salvaged = DataStreamSalvager().Salvage(serialized, &report);
  EXPECT_FALSE(report.clean);
  EXPECT_GT(report.markers_closed, 0);
  MemorySnapshot back;
  Status status = observability::MemSnapshotFromDatastream(salvaged, &back);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(back.accounts.size(), original.accounts.size());
  EXPECT_EQ(back.census.size(), original.census.size() - 1);
}

TEST(Memory, AccountantAgreesWithAllocatorOracle) {
  // The acceptance oracle: decode the 256-paragraph corpus and compare the
  // accountant's exclusive-total growth against the allocator's live-byte
  // growth over the same window.  The corpus is text-dominant, so nearly
  // every live byte is gap-buffer backing storage the accountant charges;
  // std::string/map bookkeeping the accountant deliberately ignores is the
  // tolerated remainder (10%).
  RegisterStandardModules();
  Loader::Instance().Require("text");
  MemoryAccountant& accountant = MemoryAccountant::Instance();
  WorkloadRng rng(1988);
  std::string serialized;
  {
    std::unique_ptr<TextData> generated = GenerateDocument(rng, 256, 80);
    ASSERT_NE(generated, nullptr);
    serialized = WriteDocument(*generated);
  }
  // Warm decode: faults in lazy statics (metrics, class registrations,
  // thread-local scratch) so the measured window sees only document bytes.
  { std::unique_ptr<DataObject> warm = ReadDocument(serialized); }

  const int64_t oracle_before = g_allocator_live_bytes.load(std::memory_order_relaxed);
  const int64_t accountant_before = accountant.total();
  std::unique_ptr<DataObject> decoded = ReadDocument(serialized);
  ASSERT_NE(decoded, nullptr);
  const int64_t oracle_delta =
      g_allocator_live_bytes.load(std::memory_order_relaxed) - oracle_before;
  const int64_t accountant_delta = accountant.total() - accountant_before;

  ASSERT_GT(oracle_delta, 0);
  ASSERT_GT(accountant_delta, 0);
  const double ratio =
      static_cast<double>(accountant_delta) / static_cast<double>(oracle_delta);
  EXPECT_GE(ratio, 0.9) << "accountant " << accountant_delta << " vs oracle "
                        << oracle_delta;
  EXPECT_LE(ratio, 1.1) << "accountant " << accountant_delta << " vs oracle "
                        << oracle_delta;

  // And the pairing holds: dropping the document returns the accountant to
  // its pre-decode level exactly.
  decoded.reset();
  EXPECT_EQ(accountant.total(), accountant_before);
}

TEST(Memory, NestedTextReadReservesOnlyAtTheOutermostObject) {
  // Regression: TextData::ReadBody reserved the rest of the *whole* input
  // for every text it decoded, nested ones included, so a document with N
  // embedded texts left ~N/2 document sizes of gap-buffer capacity live.
  // Only the outermost text may reserve; the gap buffers of a decoded
  // compound document then stay within a small multiple of its bytes.
  RegisterStandardModules();
  Loader::Instance().Require("text");
  Loader::Instance().Require("table");
  Loader::Instance().Require("drawing");
  Loader::Instance().Require("equation");
  constexpr int kEmbeddedTexts = 256;
  WorkloadRng rng(4096);
  std::string serialized;
  {
    std::unique_ptr<TextData> doc = GenerateCompoundDocument(rng, CompoundDocumentSpec{});
    for (int i = 0; i < kEmbeddedTexts; ++i) {
      auto child = std::make_unique<TextData>();
      child->SetText(GenerateProse(rng, 12));
      doc->InsertObject(static_cast<int64_t>(rng.Below(static_cast<uint64_t>(doc->size() + 1))),
                        std::move(child));
    }
    serialized = WriteDocument(*doc);
  }

  MemoryAccount& gapbuffer = MemoryAccountant::Instance().account("text.mem.gapbuffer");
  const int64_t before = gapbuffer.current();
  ReadContext ctx;
  std::unique_ptr<DataObject> decoded = ReadDocument(serialized, &ctx);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(ctx.ok()) << ctx.errors().front();
  EXPECT_EQ(WriteDocument(*decoded), serialized);

  const int64_t added = gapbuffer.current() - before;
  const int64_t doc_bytes = static_cast<int64_t>(serialized.size());
  EXPECT_LE(added, 4 * doc_bytes) << added << " gap-buffer bytes live for a " << doc_bytes
                                  << "-byte document with " << kEmbeddedTexts
                                  << " embedded texts";
}

TEST(Memory, ConcurrentChargeReleaseProber) {
  // TSan bait: four charging threads against one account while a prober
  // thread snapshots, runs the census, and renders text.  The invariant is
  // only checked after the join — during the run the point is the absence
  // of data races, not any particular interleaving.
  MemoryAccountant& accountant = MemoryAccountant::Instance();
  MemoryAccount& account = accountant.account("test.mem.prober");
  const int64_t base = account.current();

  std::atomic<bool> stop{false};
  std::thread prober([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MemorySnapshot snapshot = accountant.SnapshotMemory(4);
      std::string text = observability::MemoryToText(snapshot);
      ASSERT_FALSE(text.empty());
    }
  });

  std::vector<std::thread> chargers;
  for (int t = 0; t < 4; ++t) {
    chargers.emplace_back([&account] {
      for (int i = 0; i < 20000; ++i) {
        ScopedCharge charge(account, 64 + (i & 1023));
        charge.Resize(32);
      }
    });
  }
  for (std::thread& thread : chargers) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  prober.join();

  EXPECT_EQ(account.current(), base);
  EXPECT_GE(account.peak(), base + 64);
}

}  // namespace
}  // namespace atk
