#include "incidents/report.hpp"

#include <sstream>

#include "util/parse.hpp"
#include "util/strings.hpp"

namespace at::incidents {

std::string write_report(const Incident& incident, const ReportOptions& options) {
  std::ostringstream out;
  out << "== SECURITY INCIDENT REPORT ==\n";
  out << "incident-id: " << incident.id << "\n";
  out << "family: " << incident.family << "\n";
  out << "first-seen: " << util::format_date(util::to_civil(incident.start).date) << "\n";
  out << "attacker: "
      << (options.anonymize ? incident.truth.attacker.anonymized()
                            : incident.truth.attacker.str())
      << "\n";
  out << "compromised-user: " << incident.truth.compromised_user << "\n";
  out << "compromised-hosts: " << util::join(incident.truth.compromised_hosts, ",") << "\n";
  out << "core-alerts: " << incident.core_sequence().size() << "\n";
  out << "damage-recorded: " << (incident.damage_ts ? "yes" : "no") << "\n";
  out << "\n-- attack sequence --\n";
  for (const auto& entry : incident.timeline) {
    if (!entry.core) continue;
    out << "  " << util::format_datetime(entry.alert.ts) << "  "
        << entry.alert.symbol_name() << "  [" << alerts::to_string(entry.stage) << "]\n";
  }
  out << "\n-- log snippets (attack-related) --\n";
  // Quote the first few attack-related lines, the way reports carry evidence.
  constexpr std::size_t kMaxSnippetLines = 12;
  std::size_t quoted = 0;
  for (const auto& entry : incident.timeline) {
    if (!entry.attack_related || entry.core) continue;
    if (quoted++ >= kMaxSnippetLines) break;
    out << "  " << entry.alert.str() << "\n";
  }
  if (quoted == 0) out << "  (none)\n";
  return out.str();
}

std::optional<ParsedReport> parse_report(const std::string& text) {
  if (!util::starts_with(util::trim(text), "== SECURITY INCIDENT REPORT ==")) {
    return std::nullopt;
  }
  ParsedReport parsed;
  bool saw_id = false;
  for (const auto& raw_line : util::split(text, '\n')) {
    const auto line = util::trim(raw_line);
    const auto colon = line.find(": ");
    if (colon == std::string_view::npos) continue;
    const auto key = line.substr(0, colon);
    const std::string value{line.substr(colon + 2)};
    if (key == "incident-id") {
      const auto id = util::parse_num<std::uint32_t>(value);
      if (!id) return std::nullopt;
      parsed.id = *id;
      saw_id = true;
    } else if (key == "family") {
      parsed.family = value;
    } else if (key == "first-seen") {
      parsed.first_seen = value;
    } else if (key == "attacker") {
      // Anonymized addresses ("1.2.xxx.yyy") cannot be parsed back; keep 0.
      try {
        parsed.truth.attacker = net::Ipv4::parse(value);
      } catch (const std::exception&) {
        parsed.truth.attacker = net::Ipv4{};
      }
    } else if (key == "compromised-user") {
      parsed.truth.compromised_user = value;
    } else if (key == "compromised-hosts") {
      parsed.truth.compromised_hosts = util::split(value, ',');
    } else if (key == "core-alerts") {
      // A garbled count used to throw uncaught out of std::stoul; treat it
      // as the whole report being malformed, like a bad incident-id.
      const auto count = util::parse_num<std::size_t>(value);
      if (!count) return std::nullopt;
      parsed.core_alerts = *count;
    } else if (key == "damage-recorded") {
      parsed.damage_recorded = value == "yes";
    }
  }
  if (!saw_id) return std::nullopt;
  return parsed;
}

}  // namespace at::incidents
