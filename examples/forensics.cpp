// Forensic workflow after an incident: sessionize the alert stream per
// the paper's threat-model rules, tag every event with its most likely
// attack stage (Viterbi over the factor-graph chain), write the incident
// report, and archive the alerts as a Zeek notice log — the full curation
// loop the NCSA dataset went through.
//
// Run: ./build/examples/example_forensics

#include <cstdio>

#include "alerts/zeeklog.hpp"
#include "detect/sessionizer.hpp"
#include "fg/model.hpp"
#include "incidents/report.hpp"

int main() {
  using namespace at;

  incidents::CorpusConfig config;
  config.repetition_scale = 0.01;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  const auto params = fg::learn_params(corpus);

  // Pick a motif-bearing incident with a critical tail for the demo.
  const incidents::Incident* incident = nullptr;
  for (const auto& candidate : corpus.incidents) {
    if (candidate.damage_ts && candidate.core_contains(incidents::Catalog::motif())) {
      incident = &candidate;
      break;
    }
  }
  std::printf("analyzing incident #%u (%s), %zu alerts in the window\n\n", incident->id,
              incident->family.c_str(), incident->timeline.size());

  // --- 1. sessionize (same account => one attack) -------------------------
  detect::AttackSessionizer sessionizer;
  for (const auto& entry : incident->timeline) {
    sessionizer.ingest(entry.alert);
  }
  std::printf("== sessionization ==\n");
  std::size_t shown = 0;
  for (const auto& session : sessionizer.sessions()) {
    if (session.alerts.empty() || shown >= 4) continue;
    ++shown;
    std::printf("  session %u: account='%s', %zu alerts, %zu host(s), %zu source(s)\n",
                session.id, session.account.c_str(), session.alerts.size(),
                session.hosts.size(), session.sources.size());
  }
  std::printf("  (%zu sessions total — the attacker's account binds the attack)\n\n",
              sessionizer.sessions().size());

  // --- 2. per-event stage tagging (Viterbi) -------------------------------
  const auto core = incident->core_sequence();
  const auto stages = fg::decode_stages(params, core);
  std::printf("== factor-graph stage decoding of the core sequence ==\n");
  for (std::size_t i = 0; i < core.size(); ++i) {
    std::printf("  %2zu. %-38s -> %s\n", i + 1,
                std::string(alerts::symbol(core[i])).c_str(),
                std::string(alerts::to_string(stages[i])).c_str());
  }
  std::printf("\n");

  // --- 3. the incident report --------------------------------------------
  std::printf("== generated incident report ==\n%s\n",
              incidents::write_report(*incident).c_str());

  // --- 4. archive as a Zeek notice log ------------------------------------
  std::vector<alerts::Alert> attack_alerts;
  for (const auto& entry : incident->timeline) {
    if (entry.attack_related) attack_alerts.push_back(entry.alert);
  }
  const auto log_text = alerts::write_notice_log(attack_alerts);
  const auto reread = alerts::parse_notice_batch(log_text);
  std::printf("== archive ==\n");
  std::printf("  wrote %zu notices (%zu bytes), re-read %zu, malformed %zu\n",
              attack_alerts.size(), log_text.size(), reread.size(),
              reread.malformed);
  std::printf("  first notice line:\n    %s\n",
              alerts::to_notice_line(attack_alerts.front()).c_str());
  return 0;
}
