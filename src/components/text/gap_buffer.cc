#include "src/components/text/gap_buffer.h"

#include <algorithm>
#include <cstring>

namespace atk {
namespace {

// Offset of the first / last `ch` in `piece`, or -1.
int64_t FirstIn(std::string_view piece, char ch) {
  const void* hit = piece.empty() ? nullptr : std::memchr(piece.data(), ch, piece.size());
  return hit == nullptr ? -1 : static_cast<const char*>(hit) - piece.data();
}

int64_t LastIn(std::string_view piece, char ch) {
  const void* hit = piece.empty() ? nullptr : memrchr(piece.data(), ch, piece.size());
  return hit == nullptr ? -1 : static_cast<const char*>(hit) - piece.data();
}

}  // namespace

observability::MemoryAccount& GapBufferMemAccount() {
  static observability::MemoryAccount& account =
      observability::MemoryAccountant::Instance().account("text.mem.gapbuffer");
  return account;
}

void GapBuffer::MoveGapTo(size_t pos) {
  if (pos == gap_start_) {
    return;
  }
  size_t gap_len = gap_end_ - gap_start_;
  char* data = buffer_.data();
  if (pos < gap_start_) {
    std::memmove(data + pos + gap_len, data + pos, gap_start_ - pos);
  } else {
    std::memmove(data + gap_start_, data + gap_end_, pos - gap_start_);
  }
  gap_start_ = pos;
  gap_end_ = pos + gap_len;
}

void GapBuffer::GrowGap(size_t needed) {
  size_t gap_len = gap_end_ - gap_start_;
  if (gap_len >= needed) {
    return;
  }
  size_t old_size = buffer_.size();
  size_t new_size = std::max({old_size * 2, old_size + needed, kMinCapacity});
  size_t tail_len = old_size - gap_end_;
  buffer_.resize(new_size);
  // Offsets, not buffer_[i]: with the gap at the end, new_size - tail_len is
  // one past the last element.
  std::memmove(buffer_.data() + new_size - tail_len, buffer_.data() + gap_end_, tail_len);
  gap_end_ = new_size - tail_len;
  SyncMem();
}

void GapBuffer::Reserve(size_t additional) { GrowGap(additional); }

void GapBuffer::Insert(int64_t pos, std::string_view text) {
  if (pos < 0 || pos > size() || text.empty()) {
    return;
  }
  GrowGap(text.size());
  MoveGapTo(static_cast<size_t>(pos));
  std::memcpy(buffer_.data() + gap_start_, text.data(), text.size());
  gap_start_ += text.size();
}

void GapBuffer::Delete(int64_t pos, int64_t len) {
  if (pos < 0 || len <= 0 || pos >= size()) {
    return;
  }
  len = std::min(len, size() - pos);
  MoveGapTo(static_cast<size_t>(pos));
  gap_end_ += static_cast<size_t>(len);
}

std::pair<std::string_view, std::string_view> GapBuffer::Pieces(int64_t pos,
                                                               int64_t len) const {
  if (pos < 0 || pos > size() || len <= 0) {
    return {};
  }
  len = std::min(len, size() - pos);
  size_t begin = static_cast<size_t>(pos);
  size_t end = begin + static_cast<size_t>(len);
  const char* data = buffer_.data();
  std::string_view before;
  std::string_view after;
  if (begin < gap_start_) {
    before = std::string_view(data + begin, std::min(end, gap_start_) - begin);
  }
  if (end > gap_start_) {
    size_t from = std::max(begin, gap_start_);
    after = std::string_view(data + from + (gap_end_ - gap_start_), end - from);
  }
  return {before, after};
}

std::string GapBuffer::Substr(int64_t pos, int64_t len) const {
  auto [before, after] = Pieces(pos, len);
  std::string out;
  out.reserve(before.size() + after.size());
  out.append(before).append(after);
  return out;
}

int64_t GapBuffer::Find(char ch, int64_t pos) const {
  pos = std::max<int64_t>(pos, 0);
  auto [before, after] = Pieces(pos, size() - pos);
  if (int64_t hit = FirstIn(before, ch); hit >= 0) {
    return pos + hit;
  }
  if (int64_t hit = FirstIn(after, ch); hit >= 0) {
    return pos + static_cast<int64_t>(before.size()) + hit;
  }
  return -1;
}

int64_t GapBuffer::RFind(char ch, int64_t pos) const {
  auto [before, after] = Pieces(0, pos);
  if (int64_t hit = LastIn(after, ch); hit >= 0) {
    return static_cast<int64_t>(before.size()) + hit;
  }
  return LastIn(before, ch);
}

}  // namespace atk
