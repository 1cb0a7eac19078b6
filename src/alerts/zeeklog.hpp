#pragma once
// Zeek notice-log serialization. The paper's dataset is "25 million alerts
// collected in Zeek notice logs over 24 years"; this module writes and
// parses alerts in a Zeek-style tab-separated notice format so corpora can
// be exported, diffed, and re-ingested (the testbed's archival path).
//
//   #separator \t
//   #fields ts  note  host  user  src  origin  metadata
//   1730259852  alert_download_sensitive  pg-3  postgres  194.145.0.0  zeek  url=...
//
// Metadata is key=value pairs joined with '|'; absent fields are '-'.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alerts/alert.hpp"
#include "util/annotations.hpp"

namespace at::alerts {

/// Serialize one alert as a notice line (no trailing newline).
[[nodiscard]] std::string to_notice_line(const Alert& alert);

/// Full log with header.
[[nodiscard]] std::string write_notice_log(const std::vector<Alert>& alerts);

/// Structure-of-arrays view of a parsed notice log. Every string column is
/// a std::string_view into the log text the batch retains (its arena),
/// so parsing performs no per-field allocation and rows that the pipeline
/// filters out are never materialized as owning Alerts. Columns are index-
/// aligned; row i is well-formed by construction. Blank (after trimming
/// whitespace) and '#' comment lines are skipped; any other line that fails
/// to parse is only counted in `malformed`.
///
/// The batch is movable: views chase the arena because std::string's heap
/// buffer survives the move. The shortest parseable row,
/// "0\talert_logout\t\t\t-\tzeek\t-", is 25 bytes, past libstdc++'s 15-byte
/// SSO capacity, and a row-less batch holds no views.
class AlertBatch {
 public:
  std::vector<util::SimTime> ts;
  std::vector<AlertType> type;
  std::vector<Origin> origin;
  std::vector<net::Ipv4> src;         ///< valid iff has_src[i]
  std::vector<std::uint8_t> has_src;  ///< vector<bool> avoided on purpose
  std::vector<std::string_view> host;  ///< "" where the field was '-'
  std::vector<std::string_view> user;
  /// Raw metadata field ('key=val|key=val'; "" where '-'). Pairs are split
  /// lazily by materialize(); well-formedness was checked at parse time.
  std::vector<std::string_view> metadata;
  std::size_t malformed = 0;

  [[nodiscard]] std::size_t size() const noexcept { return ts.size(); }
  [[nodiscard]] bool empty() const noexcept { return ts.empty(); }
  [[nodiscard]] std::optional<net::Ipv4> src_at(std::size_t i) const {
    return has_src[i] ? std::optional<net::Ipv4>(src[i]) : std::nullopt;
  }

  /// Build the owning Alert for row i: the columns plus the metadata field
  /// split into its key=value pairs, in order.
  [[nodiscard]] Alert materialize(std::size_t i) const;

 private:
  friend AlertBatch parse_notice_batch(std::string text);
  std::string arena_;
};

/// Zero-copy batch parse, the one notice-log reader: takes ownership of the
/// log text (move it in) and returns a column-oriented batch of
/// string_views into it. A line is a row iff it has exactly 7 tab-separated
/// fields, a `-?[0-9]+` int64 ts, a known note symbol, a dotted-quad or '-'
/// src, one of the five origin names to_string(Origin) writes, and a '-' or
/// all-`key=value` metadata field.
/// AT_UNTRUSTED: notice logs arrive from monitored hosts — every field is
/// attacker-influenced until validated.
[[nodiscard]] AlertBatch parse_notice_batch(std::string text) AT_UNTRUSTED;

}  // namespace at::alerts
