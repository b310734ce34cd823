// The `trace` datastream component (§5 meets observability).
//
// A TraceSnapshot serializes as an ordinary ATK data object:
//
//   \begindata{trace,id}
//   \tracemeta{version,enabled,recorded,dropped,base_ns}
//   \track{id,name}
//   \span{seq,start_ns,duration_ns,depth,thread,flow,track,arg,name}
//   \counter{value,name}
//   \gauge{value,name}
//   \histo{count,sum,max,p50,p95,p99,name}
//   \enddata{trace,id}
//
// (Version-1 writers emitted 6-field \span directives without flow/track/
// arg and no \track lines; the reader accepts both forms.)
//
// so a captured trace survives a write -> read round trip, can be embedded
// in a document, mailed (7-bit printable), skipped by readers that do not
// know the type (SkipObject needs only the markers), and salvaged like any
// other component.  Names are `layer.noun.verb` identifiers and therefore
// never contain '}', ',' or newlines; they sit last in each directive so
// numeric fields parse positionally.

#ifndef ATK_SRC_OBSERVABILITY_TRACE_COMPONENT_H_
#define ATK_SRC_OBSERVABILITY_TRACE_COMPONENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/class_system/status.h"
#include "src/datastream/reader.h"
#include "src/datastream/writer.h"
#include "src/observability/observability.h"

namespace atk {
namespace observability {

// The datastream type name of the trace component.
inline constexpr std::string_view kTraceComponentType = "trace";

// Writes `snapshot` as a trace object on `writer` (BeginData .. EndData).
// Returns the stream id the object was written under.
int64_t WriteTraceComponent(DataStreamWriter& writer, const TraceSnapshot& snapshot);

// Parses a trace object's body.  Call with the reader positioned just after
// the consumed \begindata{trace,...} token; consumes through the matching
// \enddata.  The damage policy is the shared record reader's
// (src/datastream/record_reader.h): unknown directives inside the body are
// skipped (forward compatibility), a malformed body is Corrupt, and a stream
// that ends before \enddata is Truncated.
Status ReadTraceComponent(DataStreamReader& reader, TraceSnapshot* out);

// Convenience round-trip helpers: a whole snapshot to/from a standalone
// datastream document.
std::string SnapshotToDatastream(const TraceSnapshot& snapshot);
Status SnapshotFromDatastream(std::string_view data, TraceSnapshot* out);

}  // namespace observability
}  // namespace atk

#endif  // ATK_SRC_OBSERVABILITY_TRACE_COMPONENT_H_
