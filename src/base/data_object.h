// DataObject — one half of the toolkit's basic component pair (§2).
//
// A data object holds the persistent information: it can be saved to a
// datastream, observed by any number of views and other data objects, and
// knows nothing about how it is displayed.  Views hold the transient state
// and are never written to files.

#ifndef ATK_SRC_BASE_DATA_OBJECT_H_
#define ATK_SRC_BASE_DATA_OBJECT_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/class_system/object.h"
#include "src/class_system/observable.h"
#include "src/datastream/reader.h"
#include "src/datastream/writer.h"

namespace atk {

class DataObject;

// Shared state while reading one datastream: the id -> object map used to
// resolve \view{type,id} references, and error notes.  Decode is a single
// serial pass, so Resolve finds only objects already read; the writer's
// ordering rule (targets before the references to them) makes that enough.
class ReadContext {
 public:
  ReadContext() = default;
  ReadContext(const ReadContext&) = delete;
  ReadContext& operator=(const ReadContext&) = delete;

  void RegisterObject(int64_t id, DataObject* object) { by_id_[id] = object; }
  DataObject* Resolve(int64_t id) const {
    auto it = by_id_.find(id);
    return it != by_id_.end() ? it->second : nullptr;
  }

  void AddError(std::string message) {
    AddDiagnostic(Diagnostic{StatusCode::kCorrupt, 0, std::move(message)});
  }
  void AddDiagnostic(Diagnostic diagnostic) {
    errors_.push_back(diagnostic.message);
    diagnostics_.push_back(std::move(diagnostic));
  }
  const std::vector<std::string>& errors() const { return errors_; }
  bool ok() const { return errors_.empty(); }

  // Structured view of the same findings (code + byte offset), including the
  // reader's own diagnostics once ReadDocument finishes.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  // OK when the document parsed clean, else the first problem found.
  Status status() const {
    return diagnostics_.empty() ? Status::Ok()
                                : Status(diagnostics_.front().code,
                                         diagnostics_.front().message);
  }

 private:
  std::map<int64_t, DataObject*> by_id_;
  std::vector<std::string> errors_;
  std::vector<Diagnostic> diagnostics_;
};

class DataObject : public Object, public Observable {
  ATK_DECLARE_CLASS(DataObject)

 public:
  DataObject() = default;
  ~DataObject() override;

  // The type name written in \begindata markers.  Defaults to the class
  // name; UnknownObject overrides to preserve the original type.
  virtual std::string_view DataTypeName() const { return class_name(); }

  // Serializes this object, wrapped in its begindata/enddata pair.  Returns
  // the id assigned within `writer`'s stream (callers embed the id in
  // \view references).
  int64_t Write(DataStreamWriter& writer) const;

  // Component payload, between the markers.  Embedded children are written
  // by calling their Write().
  virtual void WriteBody(DataStreamWriter& writer) const = 0;

  // Reads the payload.  On entry the kBeginData token for this object has
  // been consumed; the implementation must consume tokens up to and
  // including its own kEndData.  Returns false on malformed content (after
  // consuming through kEndData or EOF as best it can).
  virtual bool ReadBody(DataStreamReader& reader, ReadContext& context) = 0;

  // Convenience full-document round trips.
  std::string WriteToString() const;

 protected:
  // Default loop for components without special payload: skips unknown
  // directives, ignores text, reads embedded children via ReadEmbedded,
  // stops at kEndData.  Provided as a building block for ReadBody overrides.
  bool ConsumeUntilEndData(DataStreamReader& reader);
};

// Reads one object: expects the next token to be kBeginData.  Instantiates
// the named class through the Loader (loading its module on demand, §7).
// When the class is unknown even after a load attempt, returns an
// UnknownObject preserving the raw body so the document survives a
// load/save cycle.  Returns nullptr at EOF or on a token that is not
// kBeginData.
std::unique_ptr<DataObject> ReadObject(DataStreamReader& reader, ReadContext& context);

// As above, but the kBeginData token has already been consumed.
std::unique_ptr<DataObject> ReadObjectBody(DataStreamReader& reader, ReadContext& context,
                                           const std::string& type, int64_t id);

// Whole-document helpers.
std::string WriteDocument(const DataObject& root);
std::unique_ptr<DataObject> ReadDocument(std::string input, ReadContext* context = nullptr);

// Placeholder for a component whose module is not available: captures the
// raw body verbatim and re-emits it on write (§5's skip-without-parsing).
class UnknownObject : public DataObject {
  ATK_DECLARE_CLASS(UnknownObject)

 public:
  UnknownObject() = default;
  UnknownObject(std::string type, std::string raw_body)
      : type_(std::move(type)), raw_body_(std::move(raw_body)) {}

  std::string_view DataTypeName() const override { return type_; }
  const std::string& raw_body() const { return raw_body_; }

  void WriteBody(DataStreamWriter& writer) const override;
  bool ReadBody(DataStreamReader& reader, ReadContext& context) override;

  void SetCaptured(std::string type, std::string raw_body) {
    type_ = std::move(type);
    raw_body_ = std::move(raw_body);
  }

 private:
  std::string type_ = "unknown";
  std::string raw_body_;
};

}  // namespace atk

#endif  // ATK_SRC_BASE_DATA_OBJECT_H_
