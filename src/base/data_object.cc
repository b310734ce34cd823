#include "src/base/data_object.h"

#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "src/class_system/loader.h"
#include "src/observability/memory.h"
#include "src/observability/memsnapshot_component.h"

namespace atk {
namespace {

// ---- Decoded-object census (DESIGN.md §8) ----------------------------------
//
// Every object ReadObjectBody creates is registered here with its runtime
// ClassInfo and the byte extent of the body it was decoded from; ~DataObject
// unregisters.  The registry stores the ClassInfo pointer (leaked statics)
// at registration time, so the census never makes a virtual call on a live
// object — a concurrently-destructing instance cannot race it.  The body
// bytes are reported only as census rows: they live in the components' own
// storage (gap buffers, cell vectors), which their accounts already charge.

struct LiveObjectRegistry {
  std::mutex mu;
  std::unordered_map<const DataObject*, std::pair<const ClassInfo*, size_t>> live;
};

LiveObjectRegistry& Registry() {
  static LiveObjectRegistry* registry = new LiveObjectRegistry();
  return *registry;
}

std::vector<observability::CensusRow> DataObjectCensus() {
  std::map<std::string_view, observability::CensusRow> by_class;
  LiveObjectRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& [object, entry] : registry.live) {
    const auto& [info, bytes] = entry;
    observability::CensusRow& row = by_class[info->name()];
    if (row.name.empty()) {
      row.name = info->name();
    }
    row.count += 1;
    row.bytes += bytes;
  }
  std::vector<observability::CensusRow> rows;
  rows.reserve(by_class.size());
  for (auto& [name, row] : by_class) {
    rows.push_back(std::move(row));
  }
  return rows;
}

void EnsureMemoryHooks() {
  static bool once = [] {
    observability::SetCensusFunction(&DataObjectCensus);
    observability::InstallMemSnapshotWriter();
    return true;
  }();
  (void)once;
}

void RegisterDecodedObject(const DataObject* object, size_t body_bytes) {
  EnsureMemoryHooks();
  LiveObjectRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.live.emplace(object, std::make_pair(&object->GetClassInfo(), body_bytes));
}

void UnregisterDecodedObject(const DataObject* object) {
  LiveObjectRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.live.erase(object);
}

}  // namespace

ATK_DEFINE_ABSTRACT_CLASS(DataObject, Object, "dataobject")
ATK_DEFINE_CLASS(UnknownObject, DataObject, "unknown")

DataObject::~DataObject() { UnregisterDecodedObject(this); }

int64_t DataObject::Write(DataStreamWriter& writer) const {
  int64_t id = writer.BeginData(DataTypeName());
  writer.RegisterObjectId(this, id);
  WriteBody(writer);
  writer.EndData();
  return id;
}

std::string DataObject::WriteToString() const {
  std::ostringstream out;
  DataStreamWriter writer(out);
  Write(writer);
  return out.str();
}

bool DataObject::ConsumeUntilEndData(DataStreamReader& reader) {
  using Kind = DataStreamReader::Token::Kind;
  while (true) {
    DataStreamReader::Token token = reader.Next();
    switch (token.kind) {
      case Kind::kEndData:
        return true;
      case Kind::kEof:
        return false;
      case Kind::kBeginData: {
        // Embedded object we are not modelling: skip it whole.
        reader.SkipObject(token.type, token.id);
        break;
      }
      default:
        break;  // Text, view refs and directives are ignored here.
    }
  }
}

std::unique_ptr<DataObject> ReadObject(DataStreamReader& reader, ReadContext& context) {
  using Kind = DataStreamReader::Token::Kind;
  DataStreamReader::Token token = reader.Next();
  // Leading whitespace-only text before the first marker is tolerated.
  while (token.kind == Kind::kText &&
         token.text.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    token = reader.Next();
  }
  if (token.kind != Kind::kBeginData) {
    if (token.kind != Kind::kEof) {
      context.AddError("expected \\begindata, found other content");
    }
    return nullptr;
  }
  return ReadObjectBody(reader, context, std::string(token.type), token.id);
}

std::unique_ptr<DataObject> ReadObjectBody(DataStreamReader& reader, ReadContext& context,
                                           const std::string& type, int64_t id) {
  std::unique_ptr<DataObject> data = ObjectCast<DataObject>(Loader::Instance().NewObject(type));
  if (data == nullptr) {
    // No module provides `type`: capture raw and keep going (§5).  The copy
    // out of the pinned buffer is deliberate — the UnknownObject outlives
    // the reader.
    std::string_view raw;
    if (!reader.SkipObject(type, id, &raw)) {
      context.AddError("truncated unknown object: " + type);
    }
    auto unknown = std::make_unique<UnknownObject>(type, std::string(raw));
    context.RegisterObject(id, unknown.get());
    RegisterDecodedObject(unknown.get(), raw.size());
    return unknown;
  }
  context.RegisterObject(id, data.get());
  size_t body_from = reader.position();
  if (!data->ReadBody(reader, context)) {
    context.AddError("malformed body for object type: " + type);
  }
  // Census entry: the class plus the byte extent its body was decoded from
  // (embedded children land in their own entries too; the overlap is fine —
  // census bytes are a by-class attribution, not an allocator sum).
  RegisterDecodedObject(data.get(), reader.position() - body_from);
  return data;
}

std::string WriteDocument(const DataObject& root) { return root.WriteToString(); }

std::unique_ptr<DataObject> ReadDocument(std::string input, ReadContext* context) {
  DataStreamReader reader(std::move(input));
  ReadContext local;
  ReadContext& ctx = context != nullptr ? *context : local;
  std::unique_ptr<DataObject> root = ReadObject(reader, ctx);
  if (reader.truncated() && root != nullptr) {
    ctx.AddError("document truncated");
  }
  // Surface every recovery the tokenizer performed (damaged directives,
  // marker mismatches, truncation details) instead of dropping them.
  for (const Diagnostic& diagnostic : reader.diagnostics()) {
    ctx.AddDiagnostic(diagnostic);
  }
  return root;
}

void UnknownObject::WriteBody(DataStreamWriter& writer) const {
  writer.WriteRaw(raw_body_);
}

bool UnknownObject::ReadBody(DataStreamReader& reader, ReadContext& context) {
  (void)context;
  // Reached only when "unknown" appears literally as a type name; capture
  // its body like any other unknown content.
  std::string_view raw;
  bool ok = reader.SkipObject(type_, 0, &raw);
  raw_body_ = std::string(raw);
  return ok;
}

}  // namespace atk
