#pragma once
// Raw-log symbolization: the paper's pre-processing step that turns a raw
// log message such as
//
//   23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK") [7036]
//
// into the symbolic alert `alert_download_sensitive` with metadata
// {host: internal-host, source-ip: 64.215.xxx.yyy}. The symbolizer is a
// deterministic pattern library over command/notice text; unknown lines
// return nullopt so callers can count the unmapped fraction (the paper's
// 0.3% expert-annotation residue).

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alerts/alert.hpp"
#include "util/annotations.hpp"

namespace at::alerts {

struct SymbolizedLine {
  Alert alert;
  std::string matched_pattern;  ///< name of the rule that fired
};

class Symbolizer {
 public:
  Symbolizer();

  /// Symbolize one raw log line. `day_start` anchors HH:MM:SS timestamps.
  [[nodiscard]] std::optional<SymbolizedLine> symbolize(std::string_view raw_line,
                                                        util::SimTime day_start = 0) const;

  /// Symbolize a whole log; unmapped lines are counted, not returned.
  struct BatchResult {
    std::vector<Alert> alerts;
    std::size_t unmapped = 0;
  };
  [[nodiscard]] BatchResult symbolize_all(const std::vector<std::string>& lines,
                                          util::SimTime day_start = 0) const;

 private:
  struct Pattern {
    std::string name;
    /// Every needle must appear in the line (case-insensitive).
    std::vector<std::string> needles;
    AlertType type;
  };

  std::vector<Pattern> patterns_;
};

/// Parse a leading "HH:MM:SS" prefix; returns seconds-of-day or nullopt.
/// AT_SANITIZES: strict HH:MM:SS grammar; the returned offset is bounded
/// by construction (< 24h).
[[nodiscard]] std::optional<util::SimTime> parse_time_of_day(std::string_view text) noexcept
    AT_SANITIZES;
/// Extract the "[host]" bracket token if present.
[[nodiscard]] std::optional<std::string> parse_bracket_host(std::string_view line);
/// First token that looks like an IPv4 (possibly partially masked, e.g.
/// "64.215.xxx.yyy"); returned verbatim.
[[nodiscard]] std::optional<std::string> find_ip_like_token(std::string_view line);

}  // namespace at::alerts
