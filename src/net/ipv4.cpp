#include "net/ipv4.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace at::net {

std::optional<Ipv4> Ipv4::try_parse(std::string_view text) noexcept {
  std::uint32_t value = 0;
  std::size_t start = 0;
  for (int part = 0; part < 4; ++part) {
    const std::size_t dot = part < 3 ? text.find('.', start) : text.size();
    if (dot == std::string_view::npos) return std::nullopt;
    const std::size_t len = dot - start;
    if (len == 0 || len > 3) return std::nullopt;
    int octet = 0;
    for (std::size_t i = start; i < dot; ++i) {
      const char c = text[i];
      if (c < '0' || c > '9') return std::nullopt;
      octet = octet * 10 + (c - '0');
    }
    if (octet > 255) return std::nullopt;
    value = (value << 8) | static_cast<std::uint32_t>(octet);
    start = dot + 1;
  }
  return Ipv4(value);
}

Ipv4 Ipv4::parse(const std::string& text) {
  const auto parsed = try_parse(text);
  if (!parsed) throw std::invalid_argument("Ipv4::parse: " + text);
  return *parsed;
}

std::string Ipv4::str() const {
  // Digit loop rather than snprintf: Zeek labels every DB-probe notice
  // with its destination's dotted quad. 15 bytes fit "255.255.255.255".
  char buf[15];
  char* out = buf;
  for (unsigned i = 0; i < 4; ++i) {
    if (i > 0) *out++ = '.';
    const unsigned o = octet(i);
    if (o >= 100) *out++ = static_cast<char>('0' + o / 100);
    if (o >= 10) *out++ = static_cast<char>('0' + o / 10 % 10);
    *out++ = static_cast<char>('0' + o % 10);
  }
  return std::string(buf, out);
}

std::string Ipv4::anonymized(unsigned octets) const {
  static constexpr const char* kMask[4] = {"xxx", "yyy", "zzz", "ttt"};
  std::string out;
  for (unsigned i = 0; i < 4; ++i) {
    if (i) out += '.';
    if (i < octets) {
      out += std::to_string(octet(i));
    } else {
      out += kMask[i - (octets < 4 ? octets : 3)];
    }
  }
  return out;
}

}  // namespace at::net
