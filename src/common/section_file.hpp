// One binary section-file codec, shared by every on-disk format in the
// library (serve/model_snapshot, sim/autotune_cache). Layout, all integers
// little-endian, no padding, no don't-care bytes:
//
//   header   magic (8) | version u32 | section_count u32
//   section  id u32 | length u64 | fnv1a64(payload) u64 | payload bytes
//   ...      sections in the format's fixed id order; each payload is
//            consumed exactly and the last one ends exactly at EOF
//
// Every byte of a file is covered: payload bytes by the per-section FNV-1a
// checksum, structural bytes (magic, version, counts, ids, lengths,
// checksums) by strict validation. Any truncation, trailing garbage, bit flip
// or version skew fails decode with the format's own error type, never UB.
//
// Saves are crash-safe: save_file writes `<path>.tmp` and renames it over
// `path` only after a complete write, so a crash mid-write never leaves a
// half-written file at the published name, and a reader racing the writer
// sees either the old complete file or the new one.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace loom::section_file {

/// Everything that tells one section-file format from another. Each format
/// defines exactly one, as a constexpr constant.
struct Format {
  std::string_view label;  ///< error-message prefix, e.g. "snapshot"
  std::string_view magic;  ///< the 8 leading file bytes
  std::uint32_t version;   ///< the only version decode accepts
  std::span<const std::uint32_t> sections;  ///< section ids, in file order
  std::uint64_t max_string;  ///< longest string encode or decode accepts
  /// Throws the format's error type (throw_as<E>); never returns.
  void (*raise)(const std::string& what);

  /// Throws through `raise` with "<label> " prefixed to `what`.
  [[noreturn]] void fail(const std::string& what) const;
};

/// The `raise` of a format whose errors are of type E.
template <typename E>
[[noreturn]] void throw_as(const std::string& what) {
  throw E(what);
}

/// Little-endian encode into a growing byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(const Format& format) noexcept : format_(format) {}

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// u64 length + bytes; fails when longer than the format's max_string.
  void str(const std::string& s);

  /// The bytes written so far.
  [[nodiscard]] std::vector<std::uint8_t>& out() noexcept { return out_; }

 private:
  const Format& format_;
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian decode. `what` names the field in the
/// error raised when the input runs out.
class ByteReader {
 public:
  ByteReader(const Format& format, std::span<const std::uint8_t> in) noexcept
      : format_(format), in_(in) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) [[unlikely]] truncated(n, what);
  }
  [[nodiscard]] std::uint8_t u8(const char* what) {
    need(1, what);
    return in_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(in_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  [[nodiscard]] std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  [[nodiscard]] double f64(const char* what) {
    const std::uint64_t bits = u64(what);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// u64 length + bytes; fails when longer than the format's max_string.
  [[nodiscard]] std::string str(const char* what);
  /// The next `n` bytes, as a view into the input.
  [[nodiscard]] std::span<const std::uint8_t> take(std::uint64_t n,
                                                   const char* what);
  /// A u64 element count no larger than `max`, so a corrupted count cannot
  /// drive a pathological allocation.
  [[nodiscard]] std::uint64_t count(const char* what, std::uint64_t max);
  /// An i32 in [lo, hi].
  [[nodiscard]] std::int32_t i32_in(const char* what, std::int32_t lo,
                                    std::int32_t hi);

  /// Throws the format's error type with its label prefixed.
  [[noreturn]] void fail(const std::string& what) const {
    format_.fail(what);
  }

 private:
  [[noreturn]] void truncated(std::uint64_t n, const char* what) const;

  const Format& format_;
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

/// Writes one section's payload; called once per id in format order.
using SectionEncoder = std::function<void(std::uint32_t id, ByteWriter&)>;
/// Reads one section's payload, which must be consumed exactly.
using SectionDecoder = std::function<void(std::uint32_t id, ByteReader&)>;

/// The whole file image: header, then each section framed and checksummed.
[[nodiscard]] std::vector<std::uint8_t> encode_sections(
    const Format& format, const SectionEncoder& encode);

/// Validates the header and every section frame of `bytes`, handing each
/// checksum-verified payload to `decode`. Fails on any malformed byte.
void decode_sections(const Format& format, std::span<const std::uint8_t> bytes,
                     const SectionDecoder& decode);

/// Writes `bytes` to `path` atomically (tmp file + rename). Fails on any
/// I/O error, leaving no tmp file behind and `path` untouched.
void save_file(const Format& format, const std::string& path,
               std::span<const std::uint8_t> bytes);

/// The full contents of `path`. Fails on a missing file or a short read.
[[nodiscard]] std::vector<std::uint8_t> read_file(const Format& format,
                                                  const std::string& path);

}  // namespace loom::section_file
