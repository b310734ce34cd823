#include "src/robustness/salvage.h"

#include <algorithm>
#include <set>

#include "src/datastream/scanner.h"
#include "src/observability/observability.h"

namespace atk {
namespace {

// ScanItems decomposes the raw input into a flat item list, one backslash
// unit at a time (src/datastream/scanner.h, the reader's scanner); the
// rebuild pass then repairs structure over items instead of bytes.
enum class ItemKind {
  kBytes,   // Clean payload (escapes, text, non-marker directives).
  kBegin,   // Well-formed \begindata{type,id} (span includes its newline).
  kEnd,     // Well-formed \enddata{type,id}.
  kDamage,  // A damaged directive; `type` is the attempted name ("" = lone
            // backslash).
};

struct Item {
  ItemKind kind;
  size_t begin = 0;
  size_t end = 0;
  std::string type;
  int64_t id = 0;
};

std::vector<Item> ScanItems(std::string_view input) {
  std::vector<Item> items;
  size_t run_start = 0;
  // Escapes and well-formed directives other than markers stay in the
  // current run of clean payload; a marker or a damaged unit ends it.
  auto push = [&](ItemKind kind, size_t begin, size_t end, std::string_view type, int64_t id) {
    if (begin > run_start) {
      items.push_back(Item{ItemKind::kBytes, run_start, begin, "", 0});
    }
    items.push_back(Item{kind, begin, end, std::string(type), id});
    run_start = end;
  };
  size_t p = 0;
  for (size_t at; (at = input.find('\\', p)) != std::string_view::npos;) {
    BackslashUnit unit = ScanBackslash(input, at);
    p = unit.end;
    switch (unit.kind) {
      case BackslashUnit::Kind::kEscape:
        break;
      case BackslashUnit::Kind::kLoneBackslash:
        push(ItemKind::kDamage, at, unit.end, "", 0);
        break;
      case BackslashUnit::Kind::kUnterminated:
        // Damaged through the end of the line.
        push(ItemKind::kDamage, at, unit.end, unit.name, 0);
        break;
      case BackslashUnit::Kind::kDirective: {
        bool marker = unit.name == "begindata" || unit.name == "enddata";
        if (!marker && unit.name != "view") {
          break;
        }
        std::string_view type;
        int64_t id = 0;
        if (!ParseMarkerArgs(unit.args, &type, &id)) {
          push(ItemKind::kDamage, at, unit.end, unit.name, 0);
        } else if (marker) {
          // One trailing newline belongs to the marker (reader rule).
          size_t end = unit.end < input.size() && input[unit.end] == '\n' ? unit.end + 1 : unit.end;
          push(unit.name == "begindata" ? ItemKind::kBegin : ItemKind::kEnd, at, end, type, id);
        }
        break;
      }
    }
  }
  if (input.size() > run_start) {
    items.push_back(Item{ItemKind::kBytes, run_start, input.size(), "", 0});
  }
  return items;
}

bool AllWhitespace(std::string_view bytes) {
  return bytes.find_first_not_of(" \t\r\n") == std::string_view::npos;
}

// Attempted type of a damaged marker: the args prefix up to ',' / '}'.
std::string AttemptedType(std::string_view slice) {
  size_t brace = slice.find('{');
  if (brace == std::string_view::npos) {
    return "";
  }
  size_t end = slice.find_first_of(",}", brace + 1);
  if (end == std::string_view::npos) {
    end = slice.size();
  }
  return std::string(slice.substr(brace + 1, end - brace - 1));
}

}  // namespace

void SalvageReport::PublishMetrics() const {
  using observability::Counter;
  using observability::MetricsRegistry;
  static Counter& runs = MetricsRegistry::Instance().counter("salvage.run.completed");
  static Counter& quarantined =
      MetricsRegistry::Instance().counter("salvage.subtree.quarantined");
  static Counter& closed = MetricsRegistry::Instance().counter("salvage.marker.closed");
  static Counter& escaped = MetricsRegistry::Instance().counter("salvage.backslash.escaped");
  static Counter& bytes = MetricsRegistry::Instance().counter("salvage.quarantine.dropped_bytes");
  static Counter& roots = MetricsRegistry::Instance().counter("salvage.root.synthesized");
  static Counter& resynced = MetricsRegistry::Instance().counter("salvage.stream.resynced");
  runs.Add(1);
  quarantined.Add(static_cast<uint64_t>(subtrees_quarantined));
  closed.Add(static_cast<uint64_t>(markers_closed));
  escaped.Add(static_cast<uint64_t>(backslashes_escaped));
  bytes.Add(bytes_quarantined);
  roots.Add(root_synthesized ? 1 : 0);
  resynced.Add(static_cast<uint64_t>(resyncs()));
}

std::string SalvageReport::ToString() const {
  std::string out = clean ? "clean" : "salvaged";
  out += ": " + std::to_string(subtrees_quarantined) + " quarantined (" +
         std::to_string(bytes_quarantined) + " bytes), " + std::to_string(markers_closed) +
         " markers closed, " + std::to_string(backslashes_escaped) + " backslashes escaped";
  if (root_synthesized) {
    out += ", root synthesized";
  }
  for (const SalvageAction& action : actions) {
    out += "\n  @" + std::to_string(action.offset) + " " + action.note;
  }
  out += "\n";
  return out;
}

std::string DataStreamSalvager::UnescapeQuarantine(std::string_view body) {
  std::string out;
  out.reserve(body.size());
  size_t p = 0;
  for (size_t b; (b = body.find('\\', p)) != std::string_view::npos;) {
    out.append(body.substr(p, b - p));
    BackslashUnit unit;
    if (ScanEscape(body, b, &unit)) {
      out += unit.byte;
      p = unit.end;
    } else {
      out += '\\';
      p = b + 1;
    }
  }
  out.append(body.substr(p));
  return out;
}

namespace {

std::string RunSalvage(std::string_view input, SalvageReport& rep) {
  rep = SalvageReport{};
  if (input.empty()) {
    return "";
  }

  std::vector<Item> items = [&] {
    ATK_TRACE_SPAN("salvage.phase.scan");
    return ScanItems(input);
  }();
  ATK_TRACE_SPAN("salvage.phase.rebuild");

  struct Open {
    std::string type;
    int64_t id;
  };
  std::vector<Open> stack;
  std::string out;
  std::string root_end;      // The root's own \enddata, emitted after quarantines.
  std::string trailing;      // Whitespace after the root object.
  bool root_seen = false;
  bool root_closed = false;
  std::vector<std::pair<size_t, std::string>> quarantines;  // (offset, raw slice)
  std::set<int64_t> used_ids;
  int64_t max_id = 0;
  for (const Item& item : items) {
    if (item.kind == ItemKind::kBegin || item.kind == ItemKind::kEnd) {
      max_id = std::max(max_id, item.id);
    }
  }

  auto quarantine = [&](size_t offset, std::string_view slice, std::string note,
                        SalvageAction::Kind kind = SalvageAction::Kind::kQuarantined) {
    quarantines.emplace_back(offset, std::string(slice));
    rep.bytes_quarantined += slice.size();
    ++rep.subtrees_quarantined;
    rep.actions.push_back(SalvageAction{kind, offset, std::move(note)});
    rep.clean = false;
  };
  auto close_marker = [&](const Open& open) {
    out += "\\enddata{" + open.type + "," + std::to_string(open.id) + "}\n";
    ++rep.markers_closed;
    rep.actions.push_back(SalvageAction{SalvageAction::Kind::kClosedMarker, input.size(),
                                        "closed \\begindata{" + open.type + "," +
                                            std::to_string(open.id) + "}"});
    rep.clean = false;
  };

  // Finds the item index of the \enddata that closes a subtree starting at
  // item `from` (exclusive), for a subtree of `type`.  Returns npos-like -1
  // when the extent is not discoverable.
  auto find_subtree_end = [&](size_t from, const std::string& type) -> ptrdiff_t {
    int depth = 0;
    for (size_t j = from; j < items.size(); ++j) {
      if (items[j].kind == ItemKind::kBegin) {
        ++depth;
      } else if (items[j].kind == ItemKind::kEnd) {
        if (depth > 0) {
          --depth;
        } else if (items[j].type == type) {
          return static_cast<ptrdiff_t>(j);
        } else {
          return -1;  // A foreign \enddata at this level closes the parent.
        }
      }
    }
    return -1;
  };

  size_t i = 0;
  for (; i < items.size(); ++i) {
    const Item& item = items[i];
    std::string_view slice = input.substr(item.begin, item.end - item.begin);

    if (root_closed) {
      // Everything after the root object: whitespace is kept, anything else
      // (a second top-level object, stray damage) is quarantined wholesale.
      if (item.kind == ItemKind::kBytes && AllWhitespace(slice)) {
        trailing += slice;
        continue;
      }
      std::string_view rest = input.substr(item.begin);
      quarantine(item.begin, rest, "content after the root object (" +
                                       std::to_string(rest.size()) + " bytes)");
      break;
    }

    switch (item.kind) {
      case ItemKind::kBytes: {
        if (!root_seen) {
          if (AllWhitespace(slice)) {
            out += slice;
          } else {
            quarantine(item.begin, slice, "content before the root \\begindata");
          }
          break;
        }
        out += slice;
        break;
      }
      case ItemKind::kBegin: {
        if (used_ids.count(item.id) != 0) {
          // The writer guarantees stream-unique ids, so a repeat is always
          // damage (a duplicated marker line).
          quarantine(item.begin, slice,
                     "duplicate \\begindata{" + item.type + "," + std::to_string(item.id) + "}",
                     SalvageAction::Kind::kDroppedDuplicate);
          break;
        }
        used_ids.insert(item.id);
        root_seen = true;
        stack.push_back(Open{item.type, item.id});
        out += slice;
        break;
      }
      case ItemKind::kEnd: {
        ptrdiff_t match = -1;
        for (ptrdiff_t k = static_cast<ptrdiff_t>(stack.size()) - 1; k >= 0; --k) {
          if (stack[k].type == item.type && stack[k].id == item.id) {
            match = k;
            break;
          }
        }
        if (match < 0) {
          quarantine(item.begin, slice,
                     "stray \\enddata{" + item.type + "," + std::to_string(item.id) + "}");
          break;
        }
        // Close everything the stray nesting left open above the match.
        while (static_cast<ptrdiff_t>(stack.size()) - 1 > match) {
          close_marker(stack.back());
          stack.pop_back();
        }
        stack.pop_back();
        if (stack.empty()) {
          root_closed = true;
          root_end = slice;  // Held back until the quarantines are emitted.
        } else {
          out += slice;
        }
        break;
      }
      case ItemKind::kDamage: {
        if (item.type.empty() && root_seen) {
          // Lone backslash inside the document: escape in place, preserving
          // the byte without quarantining a whole region.
          out += "\\\\";
          ++rep.backslashes_escaped;
          rep.actions.push_back(SalvageAction{SalvageAction::Kind::kEscapedBackslash,
                                              item.begin, "escaped lone backslash"});
          rep.clean = false;
          break;
        }
        if (item.type == "begindata") {
          // A mangled \begindata: when its matching \enddata survives, the
          // whole damaged subtree quarantines as one unit so its directives
          // never leak into the enclosing object.
          std::string attempted = AttemptedType(slice);
          ptrdiff_t end_item = attempted.empty() ? -1 : find_subtree_end(i + 1, attempted);
          if (end_item >= 0) {
            size_t span_end = items[end_item].end;
            std::string_view subtree = input.substr(item.begin, span_end - item.begin);
            quarantine(item.begin, subtree,
                       "damaged subtree \\begindata{" + attempted + ",?} (" +
                           std::to_string(subtree.size()) + " bytes)");
            i = static_cast<size_t>(end_item);
            break;
          }
        }
        quarantine(item.begin, slice, "damaged directive: " +
                                          std::string(slice.substr(0, std::min<size_t>(
                                                                       slice.size(), 40))));
        break;
      }
    }
  }

  // Emit the quarantine objects inside the root body, then close whatever is
  // still open (truncation recovery), then the root's own end marker.
  auto emit_quarantines = [&](std::string* dst) {
    for (const auto& [offset, raw] : quarantines) {
      int64_t id = ++max_id;
      *dst += "\\begindata{" + std::string(kLostFoundType) + "," + std::to_string(id) + "}\n";
      AppendEscapedPayload(*dst, raw);
      *dst += "\n\\enddata{" + std::string(kLostFoundType) + "," + std::to_string(id) + "}\n";
      *dst += "\\view{" + std::string(kUnknownViewType) + "," + std::to_string(id) + "}\n";
    }
  };

  if (!root_seen) {
    // No readable root object at all: synthesize a text root holding the
    // quarantined input, so the result is a valid document.
    if (quarantines.empty() && AllWhitespace(input)) {
      rep.clean = input.empty();
      return std::string(input);
    }
    int64_t root_id = ++max_id;
    std::string wrapped = "\\begindata{text," + std::to_string(root_id) + "}\n";
    emit_quarantines(&wrapped);
    wrapped += "\\enddata{text," + std::to_string(root_id) + "}\n";
    rep.root_synthesized = true;
    rep.clean = false;
    rep.actions.push_back(SalvageAction{SalvageAction::Kind::kSynthesizedRoot, 0,
                                        "synthesized text root for unreadable input"});
    return wrapped;
  }

  if (!root_closed) {
    // Truncated: close the inner nesting first, then park the quarantines at
    // root level, then close the root.
    while (stack.size() > 1) {
      close_marker(stack.back());
      stack.pop_back();
    }
    emit_quarantines(&out);
    close_marker(stack.back());
    stack.pop_back();
    return out;
  }

  emit_quarantines(&out);
  out += root_end;
  out += trailing;
  return out;
}

}  // namespace

std::string DataStreamSalvager::Salvage(std::string_view input, SalvageReport* report) {
  ATK_TRACE_SPAN("salvage.run.total");
  SalvageReport local;
  SalvageReport& rep = report != nullptr ? *report : local;
  std::string out = RunSalvage(input, rep);
  // Single exit: every salvage path — clean, truncated, synthesized root —
  // flows through here, so the metrics and the report are the same data.
  rep.PublishMetrics();
  return out;
}

}  // namespace atk
