#include "alerts/sanitizer.hpp"

#include <cctype>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace at::alerts {

namespace {

/// Leading octets a masked IP keeps; the rest read "xxx", "yyy".
constexpr unsigned kIpOctetsKept = 2;

/// Mask the trailing octets of any dotted quad found in `line`.
std::string mask_ips(std::string_view line) {
  static constexpr const char* kMask[4 - kIpOctetsKept] = {"xxx", "yyy"};
  std::string out;
  std::size_t i = 0;
  while (i < line.size()) {
    // Try to parse a dotted quad starting at i.
    std::size_t j = i;
    int octets = 0;
    std::size_t octet_starts[5] = {};
    bool quad = false;
    if (std::isdigit(static_cast<unsigned char>(line[i])) &&
        (i == 0 || !(std::isalnum(static_cast<unsigned char>(line[i - 1])) || line[i - 1] == '.'))) {
      std::size_t k = i;
      while (octets < 4) {
        octet_starts[octets] = k;
        std::size_t digits = 0;
        int value = 0;
        while (k < line.size() && std::isdigit(static_cast<unsigned char>(line[k])) && digits < 3) {
          value = value * 10 + (line[k] - '0');
          ++k;
          ++digits;
        }
        if (digits == 0 || value > 255) break;
        ++octets;
        if (octets == 4) {
          octet_starts[4] = k;
          quad = k >= line.size() || line[k] != '.';
          break;
        }
        if (k >= line.size() || line[k] != '.') break;
        ++k;  // skip '.'
      }
      j = k;
    }
    if (quad && octets == 4) {
      for (unsigned o = 0; o < 4; ++o) {
        if (o) out += '.';
        const std::size_t lo = octet_starts[o];
        const std::size_t hi = (o == 3 ? octet_starts[4] : octet_starts[o + 1] - 1);
        if (o < kIpOctetsKept) {
          out.append(line.substr(lo, hi - lo));
        } else {
          out += kMask[o - kIpOctetsKept];
        }
      }
      i = j;
    } else {
      out += line[i];
      ++i;
    }
  }
  return out;
}

}  // namespace

std::string Sanitizer::sanitize_line(std::string_view line) const {
  // Defang URLs so the logs are not clickable.
  std::string out = mask_ips(line);
  out = util::replace_all(out, "http://", "hXXp://");
  return util::replace_all(out, "https://", "hXXps://");
}

void Sanitizer::sanitize(Alert& alert) const {
  if (!alert.user.empty()) alert.user = pseudonym(alert.user);
  for (auto& [key, value] : alert.metadata) {
    value = sanitize_line(value);
  }
}

std::string Sanitizer::pseudonym(std::string_view user) const {
  if (util::starts_with(user, "user-")) return std::string(user);  // already masked
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the name
  for (const char c : user) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return "user-" + std::to_string(util::mix64(h) % 100000);
}

}  // namespace at::alerts
