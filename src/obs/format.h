// Integer-only text building shared by every obs exporter (snapshot
// JSON/CSV, time-series CSV, Chrome trace JSON, latency breakdown CSV,
// audit JSONL).
//
// Exports must be byte-deterministic, so numbers never go through double
// formatting or the locale: std::to_chars on integers is both, and it
// writes without a format-string parse. Exports are also large (tens of MB
// for a traced campaign), so fields land in a small stack buffer with
// plain stores and reach the string in one append per buffer-full, not
// one per field.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ibsec::obs {

class TextBuilder {
 public:
  TextBuilder() = default;
  TextBuilder(const TextBuilder&) = delete;  // end_ points into buf_
  TextBuilder& operator=(const TextBuilder&) = delete;

  /// Reserves the finished text's expected size (untouched pages of an
  /// over-estimate cost no resident memory).
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  TextBuilder& text(std::string_view s) {
    if (s.size() > room()) {
      flush();
      if (s.size() > sizeof buf_) {
        out_.append(s);
        return *this;
      }
    }
    std::memcpy(end_, s.data(), s.size());
    end_ += s.size();
    return *this;
  }
  TextBuilder& text(char c) {
    if (room() == 0) flush();
    *end_++ = c;
    return *this;
  }
  /// Decimal `v` ("-42"), the same text "%lld" prints.
  TextBuilder& integer(std::int64_t v) {
    if (room() < kMaxIntChars) flush();
    end_ = std::to_chars(end_, buf_ + sizeof buf_, v).ptr;
    return *this;
  }

  /// The finished text; the builder is empty afterwards.
  std::string take() {
    flush();
    return std::move(out_);
  }

 private:
  static constexpr std::size_t kMaxIntChars = 20;  // "-9223372036854775808"

  std::size_t room() const {
    return static_cast<std::size_t>(buf_ + sizeof buf_ - end_);
  }
  void flush() {
    out_.append(buf_, end_);
    end_ = buf_;
  }

  std::string out_;
  char buf_[4096];
  char* end_ = buf_;
};

}  // namespace ibsec::obs
