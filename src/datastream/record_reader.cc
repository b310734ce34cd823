#include "src/datastream/record_reader.h"

#include <string>

#include "src/datastream/directive_args.h"

namespace atk {

Status ReadRecordBody(DataStreamReader& reader, std::string_view type,
                      const RecordDirectiveFn& on_directive) {
  const std::string where = "\\begindata{" + std::string(type) + "}";
  while (true) {
    DataStreamReader::Token token = reader.Next();
    switch (token.kind) {
      case DataStreamReader::Token::Kind::kEndData:
        if (token.type != type) {
          return Status::Corrupt(where + " body closed by \\enddata{" +
                                 std::string(token.type) + ",...}");
        }
        return Status::Ok();
      case DataStreamReader::Token::Kind::kEof:
        return Status::Truncated("input ended inside " + where);
      case DataStreamReader::Token::Kind::kDiagnostic:
        return Status::Corrupt("damaged directive inside " + where + " at offset " +
                               std::to_string(token.offset));
      case DataStreamReader::Token::Kind::kText:
        if (token.text.find_first_not_of(" \t\r\n") != std::string_view::npos) {
          return Status::Corrupt("unexpected payload text inside " + where);
        }
        break;
      case DataStreamReader::Token::Kind::kBeginData:
        if (!reader.SkipObject(token.type, token.id)) {
          return Status::Truncated("input ended inside an object nested in " + where);
        }
        break;
      case DataStreamReader::Token::Kind::kViewRef:
        break;
      case DataStreamReader::Token::Kind::kDirective:
        if (!on_directive(token.type, SplitArgs(token.text))) {
          return Status::Corrupt("malformed \\" + std::string(token.type) + "{" +
                                 std::string(token.text) + "} inside " + where);
        }
        break;
    }
  }
}

Status ReadFirstRecord(std::string_view data, std::string_view type,
                       const std::function<Status(DataStreamReader&)>& read_body) {
  DataStreamReader reader{data};
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (token.kind == DataStreamReader::Token::Kind::kEof) {
      return Status::NotFound("no \\begindata{" + std::string(type) + ",...} object in input");
    }
    if (token.kind == DataStreamReader::Token::Kind::kBeginData) {
      if (token.type == type) {
        return read_body(reader);
      }
      if (!reader.SkipObject(token.type, token.id)) {
        return Status::Truncated("input ended while skipping a \\begindata{" +
                                 std::string(token.type) + "} object");
      }
    }
  }
}

}  // namespace atk
