// The `memsnapshot` datastream component (§5 meets the memory accountant).
//
// A MemorySnapshot serializes as an ordinary ATK data object:
//
//   \begindata{memsnapshot,id}
//   \memmeta{version,budget,total,peak}
//   \account{overlay,current,peak,charged,name}
//   \census{count,bytes,name}
//   \enddata{memsnapshot,id}
//
// so a heap census survives a write -> read round trip, can be embedded in
// a document, mailed (7-bit printable), skipped by readers that do not know
// the type, and salvaged like any other component.  Account and class names
// are metric-style identifiers and therefore never contain '}', ',' or
// newlines; they sit last in each directive so numeric fields parse
// positionally (the same layout as the trace component).  The `budget`
// and `overlay` fields are retired: the writer emits 0 and the reader checks
// that they are numbers and ignores them, so version-1 documents written
// with a budget or overlay accounts still read.
//
// Including this header (or linking anything that does) also installs the
// §5 writer behind memory.h's ATK_MEM_SNAPSHOT exit hook — see
// InstallMemSnapshotWriter.

#ifndef ATK_SRC_OBSERVABILITY_MEMSNAPSHOT_COMPONENT_H_
#define ATK_SRC_OBSERVABILITY_MEMSNAPSHOT_COMPONENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/class_system/status.h"
#include "src/datastream/reader.h"
#include "src/datastream/writer.h"
#include "src/observability/memory.h"

namespace atk {
namespace observability {

// The datastream type name of the memsnapshot component.
inline constexpr std::string_view kMemSnapshotComponentType = "memsnapshot";

// Writes `snapshot` as a memsnapshot object on `writer` (BeginData ..
// EndData).  Returns the stream id the object was written under.
int64_t WriteMemSnapshotComponent(DataStreamWriter& writer, const MemorySnapshot& snapshot);

// Parses a memsnapshot object's body.  Call with the reader positioned just
// after the consumed \begindata{memsnapshot,...} token; consumes through
// the matching \enddata.  The damage policy is the shared record reader's
// (src/datastream/record_reader.h): unknown directives inside the body are
// skipped (forward compatibility), a malformed body is Corrupt, and a stream
// that ends before \enddata is Truncated.
Status ReadMemSnapshotComponent(DataStreamReader& reader, MemorySnapshot* out);

// Convenience round-trip helpers: a whole snapshot to/from a standalone
// datastream document.
std::string MemSnapshotToDatastream(const MemorySnapshot& snapshot);
Status MemSnapshotFromDatastream(std::string_view data, MemorySnapshot* out);

// Installs the §5 document writer behind memory.h's ATK_MEM_SNAPSHOT exit
// hook (idempotent; also run by a static registrar in this component's
// translation unit, so any binary that references the component gets the
// hook for free).
void InstallMemSnapshotWriter();

}  // namespace observability
}  // namespace atk

#endif  // ATK_SRC_OBSERVABILITY_MEMSNAPSHOT_COMPONENT_H_
