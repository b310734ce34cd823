#include "src/observability/memsnapshot_component.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

namespace atk {
namespace observability {
namespace {

// Splits directive args on commas: all fields before the last are numeric,
// the last is an account/class name (which never contains a comma).
std::vector<std::string_view> SplitArgs(std::string_view args) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    size_t comma = args.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(args.substr(start));
      return fields;
    }
    fields.push_back(args.substr(start, comma - start));
    start = comma + 1;
  }
}

bool ParseU64(std::string_view field, uint64_t* out) {
  if (field.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char ch : field) {
    if (!std::isdigit(static_cast<unsigned char>(ch))) {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(ch - '0');
  }
  *out = value;
  return true;
}

bool ParseI64(std::string_view field, int64_t* out) {
  bool negative = !field.empty() && field.front() == '-';
  uint64_t magnitude = 0;
  if (!ParseU64(negative ? field.substr(1) : field, &magnitude)) {
    return false;
  }
  *out = negative ? -static_cast<int64_t>(magnitude) : static_cast<int64_t>(magnitude);
  return true;
}

std::string Join(std::initializer_list<std::string> fields) {
  std::string out;
  for (const std::string& field : fields) {
    if (!out.empty()) {
      out += ',';
    }
    out += field;
  }
  return out;
}

bool AllWhitespace(std::string_view text) {
  return text.find_first_not_of(" \t\r\n") == std::string_view::npos;
}

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
  while (true) {
    DataStreamReader::Token token = reader.Next();
    switch (token.kind) {
      case DataStreamReader::Token::Kind::kEndData:
        if (token.type != kMemSnapshotComponentType) {
          return Status::Corrupt("memsnapshot body closed by \\enddata{" +
                                 std::string(token.type) + ",...}");
        }
        return Status::Ok();
      case DataStreamReader::Token::Kind::kEof:
        return Status::Truncated("input ended inside a memsnapshot object");
      case DataStreamReader::Token::Kind::kDiagnostic:
        return Status::Corrupt("damaged directive inside a memsnapshot object at offset " +
                               std::to_string(token.offset));
      case DataStreamReader::Token::Kind::kText:
        if (!AllWhitespace(token.text)) {
          return Status::Corrupt("unexpected payload text inside a memsnapshot object");
        }
        break;
      case DataStreamReader::Token::Kind::kBeginData:
        // A nested object is not part of the memsnapshot schema; skip it.
        if (!reader.SkipObject(token.type, token.id)) {
          return Status::Truncated("input ended inside an object nested in a memsnapshot");
        }
        break;
      case DataStreamReader::Token::Kind::kViewRef:
        break;  // Placement references are irrelevant to the data.
      case DataStreamReader::Token::Kind::kDirective: {
        std::vector<std::string_view> fields = SplitArgs(token.text);
        uint64_t retired = 0;  // Budget and overlay fields: checked, ignored.
        if (token.type == "memmeta") {
          if (fields.size() < 4 || !ParseU64(fields[1], &retired) ||
              !ParseI64(fields[2], &out->total_bytes) ||
              !ParseI64(fields[3], &out->peak_bytes)) {
            return Status::Corrupt("malformed \\memmeta{" + std::string(token.text) + "}");
          }
        } else if (token.type == "account") {
          MemoryAccountSample account;
          if (fields.size() != 5 || !ParseU64(fields[0], &retired) ||
              !ParseI64(fields[1], &account.current_bytes) ||
              !ParseI64(fields[2], &account.peak_bytes) ||
              !ParseU64(fields[3], &account.charged_bytes)) {
            return Status::Corrupt("malformed \\account{" + std::string(token.text) + "}");
          }
          account.name = std::string(fields[4]);
          out->accounts.push_back(std::move(account));
        } else if (token.type == "census") {
          CensusRow row;
          if (fields.size() != 3 || !ParseU64(fields[0], &row.count) ||
              !ParseU64(fields[1], &row.bytes)) {
            return Status::Corrupt("malformed \\census{" + std::string(token.text) + "}");
          }
          row.name = std::string(fields[2]);
          out->census.push_back(std::move(row));
        }
        // Unknown directives are skipped: a newer writer may add fields.
        break;
      }
    }
  }
}

std::string MemSnapshotToDatastream(const MemorySnapshot& snapshot) {
  std::ostringstream out;
  DataStreamWriter writer(out);
  WriteMemSnapshotComponent(writer, snapshot);
  return out.str();
}

Status MemSnapshotFromDatastream(std::string_view data, MemorySnapshot* out) {
  // Borrow `data` directly (it outlives the reader) — no copy into the
  // reader's pinned buffer.
  DataStreamReader reader{data};
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (token.kind == DataStreamReader::Token::Kind::kEof) {
      return Status::NotFound("no \\begindata{memsnapshot,...} object in input");
    }
    if (token.kind == DataStreamReader::Token::Kind::kBeginData) {
      if (token.type == kMemSnapshotComponentType) {
        return ReadMemSnapshotComponent(reader, out);
      }
      if (!reader.SkipObject(token.type, token.id)) {
        return Status::Truncated("input ended while skipping a non-memsnapshot object");
      }
    }
  }
}

}  // namespace observability
}  // namespace atk
