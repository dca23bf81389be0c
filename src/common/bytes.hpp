// The one little-endian codec: wire frames (net/wire), peer envelopes
// and log entries (repl/core, cmd/log) and snapshot files (cmd/snapshot)
// are all built from these two classes.
//
// byte_writer appends to the caller's buffer — a std::string body or a
// std::vector<std::uint8_t> frame — so nothing is built twice.
// byte_reader is bounds-checked end to end: a failed read latches the
// failure (later reads fail too), so callers chain reads and check
// once. Byte-by-byte on purpose: the same layout on every host, no
// alignment or endianness assumptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace elect {

template <typename Buffer>
class byte_writer {
 public:
  explicit byte_writer(Buffer& out) : out_(out) {}

  void u8(std::uint8_t v) {
    out_.push_back(static_cast<typename Buffer::value_type>(v));
  }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  /// Two's-complement i32 (sessions, shards: -1 is meaningful).
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// Raw bytes, no length prefix.
  void bytes(std::string_view s) { out_.insert(out_.end(), s.begin(), s.end()); }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s);
  }

 private:
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  Buffer& out_;
};

class byte_reader {
 public:
  byte_reader(const void* data, std::size_t size)
      : at_(static_cast<const std::uint8_t*>(data)), left_(size) {}
  explicit byte_reader(std::string_view in) : byte_reader(in.data(), in.size()) {}
  explicit byte_reader(const std::vector<std::uint8_t>& in)
      : byte_reader(in.data(), in.size()) {}

  [[nodiscard]] bool u8(std::uint8_t& out) { return get(out, 1); }
  [[nodiscard]] bool u16(std::uint16_t& out) { return get(out, 2); }
  [[nodiscard]] bool u32(std::uint32_t& out) { return get(out, 4); }
  [[nodiscard]] bool u64(std::uint64_t& out) { return get(out, 8); }
  [[nodiscard]] bool i32(std::int32_t& out) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    out = static_cast<std::int32_t>(raw);
    return true;
  }
  /// A u32-length-prefixed string of at most `max_bytes`.
  [[nodiscard]] bool str(std::string& out, std::uint32_t max_bytes) {
    std::uint32_t length = 0;
    if (!u32(length)) return false;
    if (length > max_bytes || length > left_) return fail();
    out.assign(reinterpret_cast<const char*>(at_), length);
    skip(length);
    return true;
  }

  /// Bytes not read yet (0 once a read failed).
  [[nodiscard]] std::size_t left() const noexcept { return left_; }
  /// Where the next read starts.
  [[nodiscard]] const std::uint8_t* position() const noexcept { return at_; }
  /// Everything consumed, nothing trailing: trailing bytes mean the
  /// other side speaks a different dialect — reject rather than guess.
  [[nodiscard]] bool exhausted() const noexcept { return ok_ && left_ == 0; }

 private:
  template <typename T>
  bool get(T& out, std::size_t width) {
    if (left_ < width) return fail();
    out = 0;
    for (std::size_t i = 0; i < width; ++i) {
      out = static_cast<T>(out | static_cast<T>(static_cast<T>(at_[i]) << (8 * i)));
    }
    skip(width);
    return true;
  }
  void skip(std::size_t n) {
    at_ += n;
    left_ -= n;
  }
  bool fail() {
    ok_ = false;
    left_ = 0;
    return false;
  }

  const std::uint8_t* at_;
  std::size_t left_;
  bool ok_ = true;
};

}  // namespace elect
