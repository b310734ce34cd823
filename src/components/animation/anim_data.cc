#include "src/components/animation/anim_data.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "src/datastream/directive_args.h"

namespace atk {

ATK_DEFINE_CLASS(AnimData, DataObject, "animation")

namespace {
// \animcmd kind names, indexed by Command::Kind.
constexpr std::string_view kCommandNames[] = {"line", "rect", "fillrect", "ellipse", "text"};
}  // namespace

AnimData::AnimData() = default;

AnimData::~AnimData() = default;

void AnimData::NotifyModified() {
  Change change;
  change.kind = Change::Kind::kModified;
  NotifyObservers(change);
}

int AnimData::AddFrame(bool copy_previous) {
  Frame frame;
  if (copy_previous && !frames_.empty()) {
    frame = frames_.back();
  }
  frames_.push_back(std::move(frame));
  NotifyModified();
  return frame_count() - 1;
}

void AnimData::AddLine(int frame, Point a, Point b) {
  if (frame < 0 || frame >= frame_count()) {
    return;
  }
  Command cmd;
  cmd.kind = Command::Kind::kLine;
  cmd.box = Rect::FromCorners(a.x, a.y, b.x, b.y);
  // Preserve direction via width/height signs being lost: store as corners
  // in box with the convention (x,y)-(x+width,y+height).
  cmd.box = Rect{a.x, a.y, b.x - a.x, b.y - a.y};
  frames_[static_cast<size_t>(frame)].commands.push_back(cmd);
  NotifyModified();
}

void AnimData::AddRect(int frame, const Rect& box, bool filled) {
  if (frame < 0 || frame >= frame_count()) {
    return;
  }
  Command cmd;
  cmd.kind = filled ? Command::Kind::kFillRect : Command::Kind::kRect;
  cmd.box = box;
  frames_[static_cast<size_t>(frame)].commands.push_back(cmd);
  NotifyModified();
}

void AnimData::AddEllipse(int frame, const Rect& box) {
  if (frame < 0 || frame >= frame_count()) {
    return;
  }
  Command cmd;
  cmd.kind = Command::Kind::kEllipse;
  cmd.box = box;
  frames_[static_cast<size_t>(frame)].commands.push_back(cmd);
  NotifyModified();
}

void AnimData::AddText(int frame, Point at, std::string text) {
  if (frame < 0 || frame >= frame_count()) {
    return;
  }
  Command cmd;
  cmd.kind = Command::Kind::kText;
  cmd.box = Rect{at.x, at.y, 0, 0};
  cmd.text = std::move(text);
  frames_[static_cast<size_t>(frame)].commands.push_back(cmd);
  NotifyModified();
}

void AnimData::Clear() {
  frames_.clear();
  NotifyModified();
}

Rect AnimData::ContentBounds() const {
  Rect bounds;
  for (const Frame& frame : frames_) {
    for (const Command& cmd : frame.commands) {
      if (cmd.kind == Command::Kind::kLine) {
        bounds = bounds.Union(Rect{cmd.box.x, cmd.box.y, 1, 1});
        bounds = bounds.Union(Rect{cmd.box.x + cmd.box.width, cmd.box.y + cmd.box.height, 1, 1});
      } else if (cmd.kind == Command::Kind::kText) {
        bounds = bounds.Union(Rect{cmd.box.x, cmd.box.y, 6 * static_cast<int>(cmd.text.size()),
                                   10});
      } else {
        bounds = bounds.Union(cmd.box);
      }
    }
  }
  return bounds;
}

void AnimData::WriteBody(DataStreamWriter& writer) const {
  for (const Frame& frame : frames_) {
    writer.WriteDirective("animframe", std::to_string(frame.commands.size()));
    writer.WriteNewline();
    for (const Command& cmd : frame.commands) {
      std::ostringstream args;
      std::string_view kind = kCommandNames[static_cast<int>(cmd.kind)];
      args << kind << "," << cmd.box.x << "," << cmd.box.y << "," << cmd.box.width << ","
           << cmd.box.height;
      writer.WriteDirective("animcmd", args.str());
      if (cmd.kind == Command::Kind::kText) {
        writer.WriteText(cmd.text);
      }
      writer.WriteNewline();
    }
  }
}

bool AnimData::ReadBody(DataStreamReader& reader, ReadContext& context) {
  (void)context;
  using Kind = DataStreamReader::Token::Kind;
  frames_.clear();
  Command* pending_text_cmd = nullptr;
  bool ok = true;
  while (true) {
    DataStreamReader::Token token = reader.Next();
    if (token.kind == Kind::kEndData) {
      break;
    }
    if (token.kind == Kind::kEof) {
      ok = false;
      break;
    }
    if (token.kind == Kind::kDirective) {
      if (token.type == "animframe") {
        frames_.push_back(Frame{});
        pending_text_cmd = nullptr;
      } else if (token.type == "animcmd" && !frames_.empty()) {
        DirectiveArgs args(token.text);
        std::string_view name;
        Command cmd;
        const auto* known = std::end(kCommandNames);
        if (args.Name(name) && args.Int(cmd.box.x) && args.Int(cmd.box.y) &&
            args.Int(cmd.box.width) && args.Int(cmd.box.height)) {
          known = std::find(std::begin(kCommandNames), std::end(kCommandNames), name);
        }
        if (known != std::end(kCommandNames)) {
          cmd.kind = static_cast<Command::Kind>(known - std::begin(kCommandNames));
          frames_.back().commands.push_back(std::move(cmd));
          pending_text_cmd = frames_.back().commands.back().kind == Command::Kind::kText
                                 ? &frames_.back().commands.back()
                                 : nullptr;
        }
      }
    } else if (token.kind == Kind::kText) {
      if (pending_text_cmd != nullptr) {
        size_t nl = token.text.find('\n');
        pending_text_cmd->text += token.text.substr(0, nl);
        if (nl != std::string::npos) {
          pending_text_cmd = nullptr;
        }
      }
    } else if (token.kind == Kind::kBeginData) {
      reader.SkipObject(token.type, token.id);
    }
  }
  NotifyModified();
  return ok;
}

}  // namespace atk
