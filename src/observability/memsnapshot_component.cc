#include "src/observability/memsnapshot_component.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "src/datastream/directive_args.h"
#include "src/datastream/record_reader.h"

namespace atk {
namespace observability {
namespace {

bool WriteSnapshotDocument(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << MemSnapshotToDatastream(MemoryAccountant::Instance().SnapshotMemory());
  out.flush();
  return static_cast<bool>(out);
}

// Pulls the §5 writer behind the ATK_MEM_SNAPSHOT hook as soon as this
// translation unit is linked in (memory.cc itself cannot depend upward on
// the datastream).
const bool g_writer_installed = [] {
  InstallMemSnapshotWriter();
  return true;
}();

}  // namespace

void InstallMemSnapshotWriter() { SetMemSnapshotWriter(&WriteSnapshotDocument); }

int64_t WriteMemSnapshotComponent(DataStreamWriter& writer, const MemorySnapshot& snap) {
  int64_t id = writer.BeginData(kMemSnapshotComponentType);
  writer.WriteDirective(
      "memmeta", Join({"1", "0", std::to_string(snap.total_bytes),
                       std::to_string(snap.peak_bytes)}));
  writer.WriteNewline();
  for (const MemoryAccountSample& account : snap.accounts) {
    writer.WriteDirective(
        "account", Join({"0", std::to_string(account.current_bytes),
                         std::to_string(account.peak_bytes),
                         std::to_string(account.charged_bytes), account.name}));
    writer.WriteNewline();
  }
  for (const CensusRow& row : snap.census) {
    writer.WriteDirective("census", Join({std::to_string(row.count),
                                          std::to_string(row.bytes), row.name}));
    writer.WriteNewline();
  }
  writer.EndData();
  return id;
}

Status ReadMemSnapshotComponent(DataStreamReader& reader, MemorySnapshot* out) {
  *out = MemorySnapshot{};
  auto on_directive = [out](std::string_view name, const std::vector<std::string_view>& fields) {
    uint64_t retired = 0;  // Budget and overlay fields: checked, ignored.
    if (name == "memmeta") {
      if (fields.size() < 4 || !ParseU64(fields[1], &retired) ||
          !ParseI64(fields[2], &out->total_bytes) || !ParseI64(fields[3], &out->peak_bytes)) {
        return false;
      }
    } else if (name == "account") {
      MemoryAccountSample account;
      if (fields.size() != 5 || !ParseU64(fields[0], &retired) ||
          !ParseI64(fields[1], &account.current_bytes) ||
          !ParseI64(fields[2], &account.peak_bytes) ||
          !ParseU64(fields[3], &account.charged_bytes)) {
        return false;
      }
      account.name = std::string(fields[4]);
      out->accounts.push_back(std::move(account));
    } else if (name == "census") {
      CensusRow row;
      if (fields.size() != 3 || !ParseU64(fields[0], &row.count) ||
          !ParseU64(fields[1], &row.bytes)) {
        return false;
      }
      row.name = std::string(fields[2]);
      out->census.push_back(std::move(row));
    }
    // Unknown directives are skipped: a newer writer may add fields.
    return true;
  };
  return ReadRecordBody(reader, kMemSnapshotComponentType, on_directive);
}

std::string MemSnapshotToDatastream(const MemorySnapshot& snapshot) {
  std::ostringstream out;
  DataStreamWriter writer(out);
  WriteMemSnapshotComponent(writer, snapshot);
  return out.str();
}

Status MemSnapshotFromDatastream(std::string_view data, MemorySnapshot* out) {
  return ReadFirstRecord(data, kMemSnapshotComponentType, [out](DataStreamReader& reader) {
    return ReadMemSnapshotComponent(reader, out);
  });
}

}  // namespace observability
}  // namespace atk
