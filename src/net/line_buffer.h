// Copyright 2026 The vfps Authors.
// Incremental splitter of a byte stream into '\n'-terminated lines, used by
// both ends of the wire protocol. Bytes arrive in arbitrary chunks from the
// socket; lines come out whole. Framing is linear in the bytes received:
// a read cursor walks the buffer, each byte is searched for '\n' once, and
// consumed bytes are reclaimed only when at least as many are consumed as
// are still pending.

#ifndef VFPS_NET_LINE_BUFFER_H_
#define VFPS_NET_LINE_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace vfps {

/// Reassembles complete lines from stream fragments. A trailing '\r' (CRLF
/// clients) is stripped. Not thread-safe.
class LineBuffer {
 public:
  /// Limits a single line; longer unterminated input is handed out as a
  /// line of its own (protecting the server from unbounded buffering).
  explicit LineBuffer(size_t max_line_bytes = 1 << 20)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends a received chunk.
  void Feed(std::string_view chunk) {
    std::memcpy(WriteSpace(chunk.size()), chunk.data(), chunk.size());
    Commit(chunk.size());
  }

  /// At least `n` writable bytes at the end of the buffered input, for a
  /// read straight into the buffer; Commit() the bytes actually written.
  char* WriteSpace(size_t n) {
    if (buf_.size() - end_ < n) {
      const size_t pending = end_ - begin_;
      if (begin_ >= pending && buf_.size() - pending >= n) {
        // At least half the used region is consumed: reclaim it. Each byte
        // moved here was preceded by a consumed byte, so moves stay linear.
        std::memmove(buf_.data(), buf_.data() + begin_, pending);
        scanned_ = std::max(scanned_, begin_) - begin_;
        begin_ = 0;
        end_ = pending;
      } else {
        buf_.resize(std::max(2 * buf_.size(), end_ + n));
      }
    }
    return buf_.data() + end_;
  }
  void Commit(size_t n) { end_ += n; }

  /// Writable bytes at the end without growing (at least what the last
  /// WriteSpace asked for, until Commit).
  size_t writable() const { return buf_.size() - end_; }

  /// Pops the next complete line (without the terminator), or nullopt if
  /// no full line is buffered yet.
  std::optional<std::string> NextLine() {
    const char* const base = buf_.data();
    const size_t from = std::max(begin_, scanned_);
    const void* nl = std::memchr(base + from, '\n', end_ - from);
    if (nl == nullptr) {
      scanned_ = end_;
      if (end_ - begin_ > max_line_bytes_) {
        std::string line(base + begin_, end_ - begin_);
        Reset();
        return line;
      }
      return std::nullopt;
    }
    const size_t pos = static_cast<size_t>(static_cast<const char*>(nl) - base);
    std::string_view line(base + begin_, pos - begin_);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    std::string out(line);
    begin_ = pos + 1;
    if (begin_ == end_) Reset();
    return out;
  }

  /// Moves every complete line into `*out` as one block of '\n'-terminated
  /// lines (terminators and any '\r' kept; split it with PopLine), leaving
  /// the partial tail buffered. An unterminated tail over the line limit is
  /// appended as one more line. Returns false when there was nothing to
  /// hand out. `*out` is overwritten.
  bool TakeLines(std::string* out) {
    out->clear();
    const char* const base = buf_.data();
    const size_t from = std::max(begin_, scanned_);
    const void* nl = memrchr(base + from, '\n', end_ - from);
    scanned_ = end_;
    if (nl != nullptr) {
      const size_t cut = static_cast<size_t>(static_cast<const char*>(nl) -
                                             base) + 1;
      out->assign(base + begin_, cut - begin_);
      begin_ = cut;
    }
    if (end_ - begin_ > max_line_bytes_) {
      out->append(base + begin_, end_ - begin_);
      out->push_back('\n');
      begin_ = end_;
    }
    if (begin_ == end_) Reset();
    return !out->empty();
  }

  /// Bytes buffered but not yet returned.
  size_t pending_bytes() const { return end_ - begin_; }

 private:
  /// Empties the buffer once all of it is consumed, keeping its storage
  /// for the next fill.
  void Reset() { begin_ = end_ = scanned_ = 0; }

  /// Storage; [begin_, end_) is pending input, [begin_, scanned_) is known
  /// to hold no '\n'. Bytes past end_ are scratch space for WriteSpace.
  std::string buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
  size_t scanned_ = 0;
  size_t max_line_bytes_;
};

/// Pops the first line of `*block` (a run of '\n'-terminated lines, as
/// LineBuffer::TakeLines hands out) into `*line`, without its terminator or
/// a trailing '\r'. Returns false once the block is empty. A final line
/// without a terminator is popped whole.
inline bool PopLine(std::string_view* block, std::string_view* line) {
  if (block->empty()) return false;
  const size_t nl = block->find('\n');
  const size_t len = nl == std::string_view::npos ? block->size() : nl;
  *line = block->substr(0, len);
  block->remove_prefix(std::min(len + 1, block->size()));
  if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
  return true;
}

}  // namespace vfps

#endif  // VFPS_NET_LINE_BUFFER_H_
