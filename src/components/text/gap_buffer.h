// A classic gap buffer: the text storage under the text component.  Editing
// near the gap is O(1) amortized; moving the cursor far away pays one
// memmove.  This is the same structure the original ATK text object used.

#ifndef ATK_SRC_COMPONENTS_TEXT_GAP_BUFFER_H_
#define ATK_SRC_COMPONENTS_TEXT_GAP_BUFFER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/observability/memory.h"

namespace atk {

// The `text.mem.gapbuffer` account (all gap-buffer backing storage).
observability::MemoryAccount& GapBufferMemAccount();

class GapBuffer {
 public:
  // No storage until the first insert, which sizes it: a text read from a
  // document then allocates once instead of outgrowing a default capacity.
  GapBuffer() : gap_start_(0), gap_end_(0) {}
  GapBuffer(const GapBuffer& other)
      : buffer_(other.buffer_), gap_start_(other.gap_start_), gap_end_(other.gap_end_) {
    SyncMem();
  }
  GapBuffer& operator=(const GapBuffer& other) {
    buffer_ = other.buffer_;
    gap_start_ = other.gap_start_;
    gap_end_ = other.gap_end_;
    SyncMem();
    return *this;
  }
  GapBuffer(GapBuffer&&) = default;
  GapBuffer& operator=(GapBuffer&&) = default;

  int64_t size() const {
    return static_cast<int64_t>(buffer_.size() - (gap_end_ - gap_start_));
  }
  bool empty() const { return size() == 0; }

  char At(int64_t pos) const {
    size_t p = static_cast<size_t>(pos);
    return buffer_[p < gap_start_ ? p : p + (gap_end_ - gap_start_)];
  }

  void Insert(int64_t pos, std::string_view text);
  void Delete(int64_t pos, int64_t len);

  // Bulk-ingestion support (PR 5): pre-size the gap for `additional` more
  // bytes so a run of Inserts (a document body landing fragment by fragment)
  // triggers no intermediate reallocation.
  void Reserve(size_t additional);
  // Insert at the end: after the first call the gap stays at the end, so a
  // streamed document body appends with one memcpy per fragment.
  void Append(std::string_view text) { Insert(size(), text); }

  // The bytes of [pos, pos + len) in place: the part before the gap, then
  // the part after it; either may be empty.  `len` is clamped to the
  // content; a `pos` outside [0, size()] gives two empty views.  Any edit
  // invalidates both.
  std::pair<std::string_view, std::string_view> Pieces(int64_t pos, int64_t len) const;

  std::string Substr(int64_t pos, int64_t len) const;
  std::string All() const { return Substr(0, size()); }

  // Position of the next/previous occurrence of `ch` at or after / strictly
  // before `pos`; -1 when absent.
  int64_t Find(char ch, int64_t pos) const;
  int64_t RFind(char ch, int64_t pos) const;

  // Where the gap currently sits (exposed for tests and the bench).
  int64_t gap_position() const { return static_cast<int64_t>(gap_start_); }
  size_t capacity() const { return buffer_.size(); }

 private:
  // The least capacity a growing buffer takes, so typing into a fresh text
  // does not reallocate on every key.
  static constexpr size_t kMinCapacity = 64;

  void MoveGapTo(size_t pos);
  void GrowGap(size_t needed);

  // Re-charges the accountant to this buffer's capacity.  Called only when
  // the backing vector may have changed size (GrowGap, copy), never on the
  // per-edit path.  Re-attaches after a move-from, so a reused moved-from
  // buffer self-heals its accounting.
  void SyncMem() {
    if (!mem_.attached()) {
      mem_ = observability::ScopedCharge(GapBufferMemAccount());
    }
    mem_.Resize(static_cast<int64_t>(buffer_.capacity()));
  }

  std::vector<char> buffer_;
  size_t gap_start_;
  size_t gap_end_;
  observability::ScopedCharge mem_;
};

}  // namespace atk

#endif  // ATK_SRC_COMPONENTS_TEXT_GAP_BUFFER_H_
