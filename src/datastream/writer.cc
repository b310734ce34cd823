#include "src/datastream/writer.h"

#include <cstring>

#include "src/datastream/scanner.h"
#include "src/observability/observability.h"

namespace atk {

DataStreamWriter::DataStreamWriter(std::ostream& out) : out_(out) {}

DataStreamWriter::~DataStreamWriter() {
  // Whole-stream accounting is published once, at teardown, so the emission
  // path stays untouched.
  using observability::Counter;
  using observability::Gauge;
  using observability::MetricsRegistry;
  static Counter& bytes = MetricsRegistry::Instance().counter("datastream.writer.emitted_bytes");
  static Counter& diagnosed =
      MetricsRegistry::Instance().counter("datastream.writer.diagnosed");
  static Gauge& depth_max = MetricsRegistry::Instance().gauge("datastream.writer.depth_max");
  bytes.Add(static_cast<uint64_t>(bytes_written_));
  diagnosed.Add(diagnostics_.size());
  depth_max.SetMax(max_depth_);
}

void DataStreamWriter::EmitChunk(std::string_view s) { chunk_.append(s); }

void DataStreamWriter::Account(std::string_view s) {
  bytes_written_ += static_cast<int64_t>(s.size());
  // Column tracking per newline-delimited segment instead of per byte.
  size_t start = 0;
  while (start <= s.size()) {
    const void* hit = s.size() > start
                          ? std::memchr(s.data() + start, '\n', s.size() - start)
                          : nullptr;
    if (hit == nullptr) {
      column_ += static_cast<int>(s.size() - start);
      if (column_ > max_line_length_) {
        max_line_length_ = column_;
      }
      break;
    }
    size_t nl = static_cast<size_t>(static_cast<const char*>(hit) - s.data());
    column_ += static_cast<int>(nl - start);
    if (column_ > max_line_length_) {
      max_line_length_ = column_;
    }
    column_ = 0;
    start = nl + 1;
  }
}

void DataStreamWriter::FlushChunk() {
  if (chunk_.empty()) {
    return;
  }
  Account(chunk_);
  out_.write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  chunk_.clear();
}

int64_t DataStreamWriter::BeginData(std::string_view type) {
  int64_t id = next_id_++;
  BeginDataWithId(type, id);
  return id;
}

// Markers are written inline (wherever the enclosing object's content has
// reached) followed by one newline; the reader consumes that newline as part
// of the marker, so surrounding payload text round-trips byte-exactly.
void DataStreamWriter::BeginDataWithId(std::string_view type, int64_t id) {
  static observability::Counter& objects =
      observability::MetricsRegistry::Instance().counter("datastream.writer.objects");
  objects.Add(1);
  if (id >= next_id_) {
    next_id_ = id + 1;
  }
  auto [it, inserted] = ids_in_use_.emplace(id, std::string(type));
  if (!inserted) {
    diagnostics_.push_back(Diagnostic{
        StatusCode::kCorrupt, static_cast<size_t>(bytes_written_),
        "duplicate stream id " + std::to_string(id) + " (already used by \\begindata{" +
            it->second + "," + std::to_string(id) + "})"});
  }
  EmitChunk("\\begindata{");
  EmitChunk(type);
  EmitChunk(",");
  EmitChunk(std::to_string(id));
  EmitChunk("}\n");
  FlushChunk();
  stack_.push_back(OpenObject{std::string(type), id});
  if (depth() > max_depth_) {
    max_depth_ = depth();
  }
}

void DataStreamWriter::EndData() {
  if (stack_.empty()) {
    diagnostics_.push_back(Diagnostic{StatusCode::kCorrupt,
                                      static_cast<size_t>(bytes_written_),
                                      "EndData with no open object"});
    return;
  }
  OpenObject open = stack_.back();
  stack_.pop_back();
  EmitChunk("\\enddata{");
  EmitChunk(open.type);
  EmitChunk(",");
  EmitChunk(std::to_string(open.id));
  EmitChunk("}\n");
  FlushChunk();
}

void DataStreamWriter::WriteViewReference(std::string_view view_type, int64_t data_id) {
  EmitChunk("\\view{");
  EmitChunk(view_type);
  EmitChunk(",");
  EmitChunk(std::to_string(data_id));
  EmitChunk("}");
  FlushChunk();
}

void DataStreamWriter::WriteDirective(std::string_view name, std::string_view args) {
  EmitChunk("\\");
  EmitChunk(name);
  EmitChunk("{");
  EmitChunk(args);
  EmitChunk("}");
  FlushChunk();
}

void DataStreamWriter::WriteText(std::string_view text) {
  AppendEscapedPayload(chunk_, text);
  FlushChunk();
}

void DataStreamWriter::WriteLine(std::string_view line) {
  AppendEscapedPayload(chunk_, line);
  EmitChunk("\n");
  FlushChunk();
}

void DataStreamWriter::WriteRaw(std::string_view raw) {
  if (all_seven_bit_) {
    for (char ch : raw) {
      if (static_cast<unsigned char>(ch) >= 0x80) {
        all_seven_bit_ = false;
        break;
      }
    }
  }
  EmitChunk(raw);
  FlushChunk();
}

void DataStreamWriter::WriteNewline() {
  EmitChunk("\n");
  FlushChunk();
}

Status DataStreamWriter::Finish() const {
  if (!stack_.empty()) {
    return Status::Corrupt("stream finished with " + std::to_string(stack_.size()) +
                           " object(s) still open (innermost: \\begindata{" +
                           stack_.back().type + "," + std::to_string(stack_.back().id) + "})");
  }
  if (!diagnostics_.empty()) {
    return Status::Corrupt(diagnostics_.front().ToString());
  }
  return Status::Ok();
}

void DataStreamWriter::RegisterObjectId(const void* object, int64_t id) {
  object_ids_[object] = id;
}

int64_t DataStreamWriter::FindObjectId(const void* object) const {
  auto it = object_ids_.find(object);
  return it == object_ids_.end() ? 0 : it->second;
}

}  // namespace atk
