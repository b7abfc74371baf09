#include "common/section_file.hpp"

#include <cstdio>
#include <exception>
#include <utility>

#include "common/bitops.hpp"

namespace loom::section_file {

void Format::fail(const std::string& what) const {
  raise(std::string(label) + " " + what);
  std::terminate();  // unreachable: raise always throws
}

void ByteWriter::str(const std::string& s) {
  if (s.size() > format_.max_string) {
    format_.fail("string too long: " + std::to_string(s.size()) + " bytes");
  }
  u64(s.size());
  bytes(s.data(), s.size());
}

void ByteReader::truncated(std::uint64_t n, const char* what) const {
  fail(std::string("truncated reading ") + what + ": need " +
       std::to_string(n) + " bytes, have " + std::to_string(remaining()));
}

std::string ByteReader::str(const char* what) {
  const std::uint64_t n = u64(what);
  if (n > format_.max_string) {
    fail(std::string("string length for ") + what +
         " out of range: " + std::to_string(n));
  }
  const std::span<const std::uint8_t> s = take(n, what);
  return {reinterpret_cast<const char*>(s.data()), s.size()};
}

std::span<const std::uint8_t> ByteReader::take(std::uint64_t n,
                                               const char* what) {
  if (remaining() < n) truncated(n, what);
  const std::size_t at = pos_;
  pos_ += static_cast<std::size_t>(n);
  return in_.subspan(at, static_cast<std::size_t>(n));
}

std::uint64_t ByteReader::count(const char* what, std::uint64_t max) {
  const std::uint64_t n = u64(what);
  if (n > max) fail(std::string(what) + " out of range: " + std::to_string(n));
  return n;
}

std::int32_t ByteReader::i32_in(const char* what, std::int32_t lo,
                                std::int32_t hi) {
  const std::int32_t v = i32(what);
  if (v < lo || v > hi) {
    fail(std::string(what) + " out of range: " + std::to_string(v));
  }
  return v;
}

std::vector<std::uint8_t> encode_sections(const Format& format,
                                          const SectionEncoder& encode) {
  ByteWriter file(format);
  file.bytes(format.magic.data(), format.magic.size());
  file.u32(format.version);
  file.u32(static_cast<std::uint32_t>(format.sections.size()));
  for (const std::uint32_t id : format.sections) {
    ByteWriter payload(format);
    encode(id, payload);
    const std::vector<std::uint8_t>& p = payload.out();
    file.u32(id);
    file.u64(p.size());
    file.u64(fnv1a64(p));
    file.bytes(p.data(), p.size());
  }
  return std::move(file.out());
}

void decode_sections(const Format& format, std::span<const std::uint8_t> bytes,
                     const SectionDecoder& decode) {
  ByteReader file(format, bytes);
  const std::span<const std::uint8_t> magic =
      file.take(format.magic.size(), "magic");
  if (std::memcmp(magic.data(), format.magic.data(), magic.size()) != 0) {
    format.fail("magic mismatch: not a " + std::string(format.magic) +
                " file");
  }
  const std::uint32_t version = file.u32("version");
  if (version != format.version) {
    format.fail("version skew: file has version " + std::to_string(version) +
                ", this build reads " + std::to_string(format.version));
  }
  const std::uint32_t sections = file.u32("section count");
  if (sections != format.sections.size()) {
    format.fail("section count mismatch: " + std::to_string(sections) +
                " != " + std::to_string(format.sections.size()));
  }

  for (const std::uint32_t expected : format.sections) {
    const std::uint32_t id = file.u32("section id");
    if (id != expected) {
      format.fail("section order violation: got id " + std::to_string(id) +
                  ", expected " + std::to_string(expected));
    }
    const std::uint64_t length = file.u64("section length");
    const std::uint64_t checksum = file.u64("section checksum");
    const std::span<const std::uint8_t> payload =
        file.take(length, "section payload");
    if (fnv1a64(payload) != checksum) {
      format.fail("section " + std::to_string(id) +
                  " checksum mismatch (corrupted payload)");
    }
    ByteReader section(format, payload);
    decode(id, section);
    if (section.remaining() != 0) {
      format.fail("section " + std::to_string(id) + " has " +
                  std::to_string(section.remaining()) + " trailing bytes");
    }
  }
  if (file.remaining() != 0) {
    format.fail("has " + std::to_string(file.remaining()) +
                " trailing bytes after the last section");
  }
}

void save_file(const Format& format, const std::string& path,
               std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) format.fail("cannot open '" + tmp + "' for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    format.fail("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    format.fail("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_file(const Format& format,
                                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) format.fail("file '" + path + "' cannot be opened");
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    bytes.insert(bytes.end(), buf, buf + n);
    if (n < sizeof buf) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) format.fail("short read from '" + path + "'");
  return bytes;
}

}  // namespace loom::section_file
