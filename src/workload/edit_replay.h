// Collaborative edit-trace recorder/replayer (DESIGN.md §10).
//
// Records a multi-session editing run against a live DocumentServer — every
// effective edit with the server version it produced — into a §5 datastream
// document (`\begindata{editrace,...}`), and replays such a trace against a
// fresh server byte-deterministically.  The replay is version-gated: edit k
// is submitted only once the server has applied edit k-1, so the server's
// apply order always equals trace order even when a faulted transport
// reorders, drops, or severs in between.  A lost edit (a broken channel can
// discard an in-flight frame) is detected when the whole system quiesces
// with the version still short, and is resubmitted — at that point nothing
// in flight can deliver the original, so the resubmission cannot
// double-apply.
//
// Determinism contract: the final document bytes depend only on the trace.
// Clean and `ATK_NET_FAULTS` runs both converge to ExpectedReplayText(trace),
// which mirrors the server's clamping exactly.

#ifndef ATK_SRC_WORKLOAD_EDIT_REPLAY_H_
#define ATK_SRC_WORKLOAD_EDIT_REPLAY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/class_system/status.h"
#include "src/workload/session_trace.h"

namespace atk {

// One server-applied edit: the op as submitted plus the authoritative
// version the server reached by applying it.  Versions are consecutive —
// only applied edits bump a hosted document's version.
struct RecordedEdit {
  uint64_t version = 0;
  int session = 0;
  bool insert = true;
  int64_t pos = 0;
  int64_t len = 0;    // Delete length (inserts carry `text` instead).
  std::string text;   // Insert payload.
};

struct EditTrace {
  uint64_t seed = 0;        // Provenance (the generating SessionTraceSpec seed).
  int sessions = 1;         // Client sessions the replay should attach.
  std::string initial_text; // Hosted document's content before the first edit.
  std::vector<RecordedEdit> edits;  // In server apply order.
};

// Drives BuildSessionTrace(spec) through a live server over clean links in
// lock-step and captures every effective edit.  Steps the server turns into
// no-ops (e.g. a delete clamped to nothing) are dropped: a recorded trace
// replays version-for-version.
EditTrace RecordEditTrace(const SessionTraceSpec& spec);

// §5 external representation.  Payload bytes ride as lower-case hex inside
// directive args, so the recording is 7-bit, mailable, and salvageable like
// any other datastream document:
//   \begindata{editrace,1}
//   \replaymeta{1,<seed>,<sessions>,<edit count>}
//   \inittext{<hex chunk>}            (repeated, 64 hex chars per line)
//   \edit{<version>,<session>,<i|d>,<pos>,<len>,<hex text>}
//   \enddata{editrace,1}
inline constexpr std::string_view kEditTraceType = "editrace";
std::string EditTraceToDatastream(const EditTrace& trace);
Status EditTraceFromDatastream(std::string_view data, EditTrace* out);

struct ReplayOptions {
  // Transport faults for the replay links: when `use_env_faults` is set,
  // every link uses TransportFaultPlan::FromEnv() (the ATK_NET_FAULTS knob);
  // otherwise a nonzero `fault_seed` derives a per-session plan from
  // FromSeed(fault_seed + session).  Both zero: clean links.
  bool use_env_faults = false;
  uint64_t fault_seed = 0;
  int max_ticks = 400000;      // Hard cap on simulation ticks.
  int settle_ticks = 60000;    // Cap on the final quiescence settle.
};

struct ReplayResult {
  bool completed = false;           // Every edit applied within the tick caps.
  bool replicas_converged = false;  // All replicas byte-equal to the server doc.
  int64_t edits_applied = 0;
  int resubmissions = 0;       // Edits lost to the transport and resent.
  uint64_t reconnects = 0;     // Summed across sessions.
  uint64_t final_version = 0;
  int ticks = 0;               // Simulation ticks consumed.
  std::string final_text;      // Server document text after the replay.
  uint64_t final_digest = 0;   // Fnv1a64(final_text): the determinism pin.
};

ReplayResult ReplayEditTrace(const EditTrace& trace,
                             const ReplayOptions& options = ReplayOptions());

// Pure string-math oracle: the text after applying the trace in version
// order with the server's clamping (pos to size, delete length to the
// tail).  Config-independent — what every replay run must produce.
std::string ExpectedReplayText(const EditTrace& trace);

}  // namespace atk

#endif  // ATK_SRC_WORKLOAD_EDIT_REPLAY_H_
