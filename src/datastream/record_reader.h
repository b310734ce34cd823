// Record documents (§5): objects whose body is nothing but directives, one
// record per line — \begindata{trace}, {memsnapshot} and {editrace}.  Their
// readers share one body walk and one finder, so every record type answers
// damage the same way; a record reader supplies only its field rules.
//
// The body policy:
//   * the object's own \enddata ends the body; another type's is Corrupt;
//   * end of input is Truncated;
//   * a reader diagnostic (a damaged directive) is Corrupt;
//   * payload text that is not blank is Corrupt;
//   * a nested object is skipped whole (Truncated if it never closes);
//   * \view references and unknown directives are ignored, so a newer
//     writer may add directives an older reader does not know.

#ifndef ATK_SRC_DATASTREAM_RECORD_READER_H_
#define ATK_SRC_DATASTREAM_RECORD_READER_H_

#include <functional>
#include <string_view>
#include <vector>

#include "src/class_system/status.h"
#include "src/datastream/reader.h"

namespace atk {

// Called for each directive of a record body with its name and its
// SplitArgs fields.  Returns false when the directive is malformed, which
// makes the body Corrupt; a directive it does not know it accepts.
using RecordDirectiveFn =
    std::function<bool(std::string_view name, const std::vector<std::string_view>& fields)>;

// Reads the body of a `type` object, just after its \begindata, through its
// \enddata.
Status ReadRecordBody(DataStreamReader& reader, std::string_view type,
                      const RecordDirectiveFn& on_directive);

// Finds the first top-level `type` object in `data` (borrowed, not copied),
// skipping any other object whole, and hands the reader to `read_body` just
// after its \begindata.  NotFound when there is no such object.
Status ReadFirstRecord(std::string_view data, std::string_view type,
                       const std::function<Status(DataStreamReader&)>& read_body);

}  // namespace atk

#endif  // ATK_SRC_DATASTREAM_RECORD_READER_H_
