#include "src/server/protocol.h"

#include <charconv>
#include <cstring>

#include "src/datastream/directive_args.h"
#include "src/server/frame.h"

namespace atk {
namespace server {
namespace {

// Pulls the next "\n"-terminated line off `rest`; false at end of input.
bool NextLine(std::string_view* rest, std::string_view* line) {
  if (rest->empty()) {
    return false;
  }
  size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    *line = *rest;
    rest->remove_prefix(rest->size());
  } else {
    *line = rest->substr(0, nl);
    rest->remove_prefix(nl + 1);
  }
  return true;
}

// "key value" split; false when the line does not start with `key` + space.
bool KeyedLine(std::string_view line, std::string_view key, std::string_view* value) {
  if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
      line[key.size()] != ' ') {
    return false;
  }
  *value = line.substr(key.size() + 1);
  return true;
}

}  // namespace

std::string EncodeHello(const HelloPayload& hello) {
  std::string out = "client " + hello.client + "\n";
  out += "doc " + hello.doc + "\n";
  out += "version " + std::to_string(hello.version) + "\n";
  out += "epoch " + std::to_string(hello.epoch) + "\n";
  return out;
}

bool DecodeHello(std::string_view payload, HelloPayload* out) {
  std::string_view line, value;
  if (!NextLine(&payload, &line) || !KeyedLine(line, "client", &value)) {
    return false;
  }
  out->client = std::string(value);
  if (!NextLine(&payload, &line) || !KeyedLine(line, "doc", &value)) {
    return false;
  }
  out->doc = std::string(value);
  if (!NextLine(&payload, &line) || !KeyedLine(line, "version", &value) ||
      !ParseU64(value, &out->version)) {
    return false;
  }
  if (!NextLine(&payload, &line) || !KeyedLine(line, "epoch", &value) ||
      !ParseU64(value, &out->epoch)) {
    return false;
  }
  return true;
}

std::string EncodeHelloAck(const HelloAckPayload& ack) {
  return "session " + std::to_string(ack.session) + "\nversion " +
         std::to_string(ack.version) + "\n";
}

bool DecodeHelloAck(std::string_view payload, HelloAckPayload* out) {
  std::string_view line, value;
  uint64_t session = 0;
  if (!NextLine(&payload, &line) || !KeyedLine(line, "session", &value) ||
      !ParseU64(value, &session) || session > 0xFFFFFFFFull) {
    return false;
  }
  out->session = static_cast<uint32_t>(session);
  if (!NextLine(&payload, &line) || !KeyedLine(line, "version", &value) ||
      !ParseU64(value, &out->version)) {
    return false;
  }
  return true;
}

uint64_t FrameFlow(const EditPayload& edit) {
  for (const EditRecord& record : edit.ops) {
    if (record.flow != 0) {
      return record.flow;
    }
  }
  return 0;
}

std::string EncodeEdit(const EditPayload& edit) {
  // Each record's head is built in one stack pass: the fan-out encodes a
  // batch once per tick, and the string-temporary-per-line idiom the other
  // codecs use would put an allocation per line on that path.  192 bytes
  // covers the worst case (6 keys + 5 full-width u64/i64 values); the
  // lambdas still bounds-check so the compiler can see it too.
  std::string out;
  bool first = true;
  for (const EditRecord& record : edit.ops) {
    char head[192];
    char* p = head;
    char* const end = head + sizeof(head);
    auto put = [&](std::string_view s) {
      if (static_cast<size_t>(end - p) >= s.size()) {
        std::memcpy(p, s.data(), s.size());
        p += s.size();
      }
    };
    auto ch = [&](char c) {
      if (p < end) {
        *p++ = c;
      }
    };
    auto num = [&](auto v) { p = std::to_chars(p, end, v).ptr; };
    put("version ");
    num(record.version);
    ch('\n');
    if (first) {
      put("tick ");
      num(edit.sent_tick);
      ch('\n');
      first = false;
    }
    if (record.flow != 0) {
      put("flow ");
      num(record.flow);
      ch('\n');
      put("origin ");
      num(record.origin_ns);
      ch('\n');
    }
    put("op ");
    ch(record.op.kind == EditOp::Kind::kInsert ? 'i' : 'd');
    ch(' ');
    num(record.op.pos);
    ch(' ');
    num(record.op.len);
    ch('\n');
    out.append(head, static_cast<size_t>(p - head));
    if (record.op.kind == EditOp::Kind::kInsert) {
      out += record.op.text;
    }
  }
  return out;
}

bool DecodeEdit(std::string_view payload, EditPayload* out) {
  out->ops.clear();
  std::string_view line, value;
  while (!payload.empty()) {
    EditRecord& record = out->ops.emplace_back();
    if (!NextLine(&payload, &line) || !KeyedLine(line, "version", &value) ||
        !ParseU64(value, &record.version)) {
      return false;
    }
    if (out->ops.size() == 1 &&
        (!NextLine(&payload, &line) || !KeyedLine(line, "tick", &value) ||
         !ParseU64(value, &out->sent_tick))) {
      return false;
    }
    // Optional causal-trace lines (present only when the origin allocated a
    // flow id); a record without them decodes with flow == origin_ns == 0.
    if (!NextLine(&payload, &line)) {
      return false;
    }
    if (KeyedLine(line, "flow", &value)) {
      if (!ParseU64(value, &record.flow)) {
        return false;
      }
      if (!NextLine(&payload, &line) || !KeyedLine(line, "origin", &value) ||
          !ParseU64(value, &record.origin_ns)) {
        return false;
      }
      if (!NextLine(&payload, &line)) {
        return false;
      }
    }
    if (!KeyedLine(line, "op", &value)) {
      return false;
    }
    if (value.size() < 2 || (value[0] != 'i' && value[0] != 'd') || value[1] != ' ') {
      return false;
    }
    EditOp& op = record.op;
    op.kind = value[0] == 'i' ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
    value.remove_prefix(2);
    size_t space = value.find(' ');
    if (space == std::string_view::npos) {
      return false;
    }
    if (!ParseI64(value.substr(0, space), &op.pos) ||
        !ParseI64(value.substr(space + 1), &op.len)) {
      return false;
    }
    if (op.pos < 0 || op.len < 0) {
      return false;
    }
    if (op.kind == EditOp::Kind::kInsert) {
      if (payload.size() < static_cast<size_t>(op.len)) {
        return false;  // Length prefix and payload bytes disagree: damaged.
      }
      op.text = std::string(payload.substr(0, static_cast<size_t>(op.len)));
      payload.remove_prefix(static_cast<size_t>(op.len));
    }
  }
  return !out->ops.empty();
}

uint32_t SnapshotSum(uint64_t version, const std::string& document) {
  // The CRC of "<version>\n" + document, chained through the seed so the
  // document is not copied.
  char head[24];
  char* end = std::to_chars(head, head + sizeof(head) - 1, version).ptr;
  *end++ = '\n';
  return Crc32(document, Crc32(std::string_view(head, static_cast<size_t>(end - head))));
}

std::string EncodeSnapshot(const SnapshotPayload& snapshot) {
  std::string out = "version " + std::to_string(snapshot.version) + "\n";
  out += "docsum " + std::to_string(snapshot.docsum) + "\n";
  out += "bytes " + std::to_string(snapshot.document.size()) + "\n";
  out += snapshot.document;
  return out;
}

bool DecodeSnapshot(std::string_view payload, SnapshotPayload* out) {
  std::string_view line, value;
  if (!NextLine(&payload, &line) || !KeyedLine(line, "version", &value) ||
      !ParseU64(value, &out->version)) {
    return false;
  }
  uint64_t docsum = 0;
  if (!NextLine(&payload, &line) || !KeyedLine(line, "docsum", &value) ||
      !ParseU64(value, &docsum) || docsum > 0xFFFFFFFFull) {
    return false;
  }
  out->docsum = static_cast<uint32_t>(docsum);
  uint64_t bytes = 0;
  if (!NextLine(&payload, &line) || !KeyedLine(line, "bytes", &value) ||
      !ParseU64(value, &bytes)) {
    return false;
  }
  // The document bytes themselves may be damaged-at-rest; the caller runs
  // the salvage path.  Only the envelope is validated here.
  if (payload.size() != bytes) {
    return false;
  }
  out->document = std::string(payload);
  return true;
}

std::string EncodeSnapshotReq(uint64_t have_version) {
  return "have " + std::to_string(have_version) + "\n";
}

bool DecodeSnapshotReq(std::string_view payload, uint64_t* have_version) {
  std::string_view line, value;
  return NextLine(&payload, &line) && KeyedLine(line, "have", &value) &&
         ParseU64(value, have_version);
}

std::string EncodeEvict(std::string_view reason) {
  return "reason " + std::string(reason) + "\n";
}

bool DecodeEvict(std::string_view payload, std::string* reason) {
  std::string_view line, value;
  if (!NextLine(&payload, &line) || !KeyedLine(line, "reason", &value)) {
    return false;
  }
  *reason = std::string(value);
  return true;
}

}  // namespace server
}  // namespace atk
