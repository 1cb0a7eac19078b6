#pragma once
// Sanitization: the paper keeps log timestamps but masks specific
// information (personal data, file names, trailing IP octets) before logs
// leave the security enclave. This mirrors the anonymization visible in the
// paper's own listings ("64.215.xxx.yyy", "hXXp://194.145.xxx.yyy/..."):
// IPs keep their first two octets, URLs are defanged and usernames become
// stable pseudonyms. File names are left as they are.

#include <string>
#include <string_view>

#include "alerts/alert.hpp"
#include "util/annotations.hpp"

namespace at::alerts {

class Sanitizer {
 public:
  /// Sanitize a raw log line (IPs masked, URLs defanged, names pseudonymized).
  /// AT_SANITIZES: strips user-supplied content down to the symbolic
  /// skeleton the paper's preprocessing keeps, so the result is safe for
  /// downstream storage and formatting.
  [[nodiscard]] std::string sanitize_line(std::string_view line) const AT_SANITIZES;

  /// Sanitize an alert in place: src IP rendering is masked via
  /// Ipv4::anonymized at print time, so only metadata and user need work.
  void sanitize(Alert& alert) const;

  /// Stable pseudonym for a username (same input -> same output).
  [[nodiscard]] std::string pseudonym(std::string_view user) const;
};

}  // namespace at::alerts
