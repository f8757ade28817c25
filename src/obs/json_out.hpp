// Internal JSON emitter shared by the metrics, health and flight sidecars
// and the Chrome trace: one buffer, handed to the stream in 64 KiB chunks.
// Number formats are part of the determinism contract (DESIGN.md §7):
// integers in decimal, doubles as printf "%.17g" (std::to_chars with
// precision 17 is specified to produce the same characters), non-finite
// doubles as null.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

namespace aqm::obs::detail {

class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os), buf_(new char[kSize]) {}
  ~JsonOut() { flush(); }

  /// Raw text, copied verbatim.
  JsonOut& operator<<(std::string_view s) {
    if (kSize - len_ < s.size()) flush();
    if (s.size() > kSize) {
      os_.write(s.data(), static_cast<std::streamsize>(s.size()));
    } else {
      std::memcpy(buf_.get() + len_, s.data(), s.size());
      len_ += s.size();
    }
    return *this;
  }
  JsonOut& operator<<(char c) {
    if (len_ == kSize) flush();
    buf_[len_++] = c;
    return *this;
  }
  template <std::unsigned_integral T>
  JsonOut& operator<<(T v) {
    char tmp[24];
    return *this << std::string_view(tmp, std::to_chars(tmp, tmp + sizeof tmp, v).ptr);
  }
  JsonOut& operator<<(double v) {
    if (!std::isfinite(v)) return *this << std::string_view("null");
    char tmp[40];
    const char* end = std::to_chars(tmp, tmp + sizeof tmp, v, std::chars_format::general, 17).ptr;
    return *this << std::string_view(tmp, end);
  }

  /// A quoted, escaped string. Plain names (the common case) are one scan
  /// and one copy.
  JsonOut& str(std::string_view s) {
    *this << '"';
    if (plain(s)) return *this << s << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') {
        *this << '\\' << ch;
      } else if (ch == '\n') {
        *this << "\\n";
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        constexpr char kHex[] = "0123456789abcdef";
        *this << "\\u00" << kHex[(ch >> 4) & 0xF] << kHex[ch & 0xF];
      } else {
        *this << ch;
      }
    }
    return *this << '"';
  }
  /// `"key":`, no space after the colon.
  JsonOut& key(std::string_view k) { return str(k) << ':'; }

  void flush() {
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kSize = 1 << 16;

  /// True when no byte needs escaping ('"', '\\', control): eight bytes
  /// per step with the has-zero-byte / has-byte-less-than bit tricks.
  static bool plain(std::string_view s) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHigh = 0x8080808080808080ull;
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t x;
      std::memcpy(&x, s.data() + i, 8);
      const std::uint64_t q = x ^ (kOnes * '"');
      const std::uint64_t b = x ^ (kOnes * '\\');
      if ((((x - kOnes * 0x20) & ~x) | ((q - kOnes) & ~q) | ((b - kOnes) & ~b)) & kHigh) {
        return false;
      }
    }
    for (; i < s.size(); ++i) {
      if (s[i] == '"' || s[i] == '\\' || static_cast<unsigned char>(s[i]) < 0x20) return false;
    }
    return true;
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

/// Writes `path` with `write(std::ostream&)`; false if it cannot be written.
template <class Write>
bool write_file(const std::string& path, Write write) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write(os);
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace aqm::obs::detail
