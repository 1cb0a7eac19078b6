#pragma once
// Incident reports. Each incident in NCSA's dataset carries a
// "human-written incident report that indicates ground truth: the users
// and the machines involved" plus snippet logs of the attack. This module
// renders an Incident into that report form and parses the ground-truth
// header back — the curation format the corpus round-trips through.

#include <optional>
#include <string>

#include "incidents/incident.hpp"

namespace at::incidents {

struct ReportOptions {
  bool anonymize = true;  ///< mask addresses like the paper's listings
};

/// Render a full incident report (plain text with a structured header).
[[nodiscard]] std::string write_report(const Incident& incident,
                                       const ReportOptions& options = {});

/// Ground truth parsed back from a report header.
struct ParsedReport {
  std::uint32_t id = 0;
  std::string family;
  std::string first_seen;  ///< formatted date
  GroundTruth truth;       ///< attacker address is zero when anonymized
  std::size_t core_alerts = 0;
  bool damage_recorded = false;
};

/// Parse the structured header; nullopt if the text is not a report.
[[nodiscard]] std::optional<ParsedReport> parse_report(const std::string& text);

}  // namespace at::incidents
