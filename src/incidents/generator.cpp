#include "incidents/generator.hpp"

#include <algorithm>
#include <cmath>

#include "net/cidr.hpp"
#include "util/thread_pool.hpp"
#include "util/time_utils.hpp"

namespace at::incidents {

namespace {

using alerts::Alert;
using alerts::AlertType;
using alerts::AttackStage;
using alerts::Category;

/// Non-critical alert types usable as window noise ("attack attempts and
/// account activity intermingling with the successful attack"). Benign
/// types are included: the attacker's account also produces ordinary
/// activity that forensics keeps in the related set.
std::vector<AlertType> noise_pool() {
  std::vector<AlertType> pool;
  for (const auto& entry : alerts::all_alert_info()) {
    if (entry.critical) continue;
    pool.push_back(entry.type);
  }
  return pool;
}

std::vector<AlertType> benign_pool() {
  std::vector<AlertType> pool;
  for (const auto& entry : alerts::all_alert_info()) {
    if (entry.category == Category::kBenign) pool.push_back(entry.type);
  }
  return pool;
}

/// Types whose repetitions the paper calls "repeated but inconclusive"
/// (mass scans and bruteforce bursts).
bool repeatable(AlertType type) noexcept {
  const auto category = alerts::category_of(type);
  return category == Category::kRecon || category == Category::kAccess;
}

constexpr const char* kUsers[] = {"alice", "bob", "carol", "dave", "erin",
                                  "frank", "grace", "heidi", "ivan", "judy"};

/// Study period the incident start years are drawn from.
constexpr int kStartYear = 2002;
constexpr int kEndYear = 2024;
/// Extra distinct attack-attempt alert types blended into each incident's
/// window (dilutes pairwise Jaccard like the real alert context does).
constexpr std::int64_t kMinExtraTypes = 5;
constexpr std::int64_t kMaxExtraTypes = 8;
/// Legitimate-activity alerts interleaved per incident.
constexpr std::int64_t kMinBenignAlerts = 8;
constexpr std::int64_t kMaxBenignAlerts = 16;
/// Mean materialized repeated-attempt alerts per incident; at
/// repetition_scale 1.0 the filtered corpus totals ~191K alerts (the
/// paper's Table I). Set slightly above the per-incident budget because
/// incidents whose window happens to contain no repeatable (recon/access)
/// alert type skip the burst entirely.
constexpr double kMeanRepetitions = 840.0;
/// Mean raw (pre-filter) alert volume per incident window; at 228
/// incidents this totals the paper's ~25M.
constexpr double kMeanRawAlerts = 109'649.0;
/// Ambiguous alerts planted per incident (expert annotation, ~0.3%).
constexpr std::size_t kAmbiguousPerIncident = 2;

}  // namespace

Corpus CorpusGenerator::generate() const {
  Corpus corpus;
  util::Rng rng(config_.seed);

  // Instantiate freq(S) incidents per catalog sequence. Every incident
  // draws from its own forked RNG stream keyed by (sequence, instance), so
  // synthesis parallelizes across a thread pool with bit-identical output
  // at any thread count; start times are then re-numbered chronologically.
  struct Job {
    std::uint32_t seq_index;
    std::size_t k;
  };
  std::vector<Job> jobs;
  for (std::uint32_t seq_index = 0; seq_index < corpus.catalog.size(); ++seq_index) {
    for (std::size_t k = 0; k < corpus.catalog.at(seq_index).frequency; ++k) {
      jobs.push_back({seq_index, k});
    }
  }
  corpus.incidents.resize(jobs.size());
  util::ThreadPool pool(config_.threads);
  pool.parallel_for(
      0, jobs.size(),
      [&](std::size_t i) {
        const auto& job = jobs[i];
        util::Rng child =
            rng.fork((static_cast<std::uint64_t>(job.seq_index) << 20) | job.k);
        corpus.incidents[i] = make_incident(static_cast<std::uint32_t>(i), job.seq_index,
                                            corpus.catalog.at(job.seq_index), child);
      },
      /*grain=*/8);
  std::sort(corpus.incidents.begin(), corpus.incidents.end(),
            [](const Incident& a, const Incident& b) { return a.start < b.start; });
  for (std::uint32_t i = 0; i < corpus.incidents.size(); ++i) corpus.incidents[i].id = i;

  // Aggregate stats (what Table I reports).
  auto& stats = corpus.stats;
  stats.incidents = corpus.incidents.size();
  const auto motif = Catalog::motif();
  for (const auto& incident : corpus.incidents) {
    stats.raw_alerts += incident.raw_alert_count;
    stats.filtered_alerts += incident.timeline.size();
    stats.critical_occurrences += incident.critical_count();
    if (incident.core_contains(motif)) ++stats.motif_incidents;
    for (const auto& entry : incident.timeline) {
      // Ambiguous = auto-annotation by category disagrees with ground truth.
      const bool looks_benign = alerts::category_of(entry.alert.type) == Category::kBenign;
      if (looks_benign == entry.attack_related) ++stats.ambiguous_alerts;
    }
  }
  return corpus;
}

Incident CorpusGenerator::make_incident(std::uint32_t id, std::uint32_t seq_index,
                                        const CatalogSequence& seq, util::Rng& rng) const {
  static const std::vector<AlertType> kNoisePool = noise_pool();
  static const std::vector<AlertType> kBenignPool = benign_pool();

  Incident incident;
  incident.id = id;
  incident.sequence_id = seq_index;
  incident.family = seq.family;

  // Start time: uniform day within a uniform year of the study period.
  const int year = static_cast<int>(rng.uniform_int(kStartYear, kEndYear));
  const util::SimTime year_start = util::to_sim_time(util::CivilDate{year, 1, 1});
  incident.start = year_start + rng.uniform_int(0, 360) * util::kDay +
                   rng.uniform_int(0, util::kDay - 1);

  // Ground truth. Attacker addresses are external: redraw on the unlikely
  // event the uniform draw lands inside the protected /16.
  do {
    incident.truth.attacker =
        net::Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0x30000000, 0xdfffffff)));
  } while (net::blocks::ncsa16().contains(incident.truth.attacker));
  incident.truth.compromised_user = kUsers[rng.uniform_int(0, std::size(kUsers) - 1)];
  const std::string host = "node-" + std::to_string(rng.uniform_int(1, 13000));
  incident.truth.compromised_hosts.push_back(host);

  auto push = [&](util::SimTime ts, AlertType type, bool related, bool core,
                  AttackStage stage) {
    LabeledAlert entry;
    entry.alert.ts = ts;
    entry.alert.type = type;
    entry.alert.host = host;
    entry.alert.user = related ? incident.truth.compromised_user : std::string{};
    if (related) entry.alert.src = incident.truth.attacker;
    entry.stage = stage;
    entry.attack_related = related;
    entry.core = core;
    incident.timeline.push_back(std::move(entry));
  };

  // --- Core sequence: recon-stage gaps are tight and regular; once the
  // attacker works manually the gaps become long and highly variable
  // (Insight 3).
  util::SimTime t = incident.start;
  AttackStage running_stage = AttackStage::kSuspicious;
  for (std::size_t i = 0; i < seq.alerts.size(); ++i) {
    const AlertType type = seq.alerts[i];
    const auto& meta = alerts::info(type);
    if (meta.typical_stage > running_stage) running_stage = meta.typical_stage;
    push(t, type, /*related=*/true, /*core=*/true, running_stage);
    if (i + 1 < seq.alerts.size()) {
      if (alerts::category_of(type) == Category::kRecon ||
          alerts::category_of(type) == Category::kAccess) {
        // Automated probing: a scripted loop fires every few seconds with
        // barely any jitter (Insight 3's "repetitive" phase).
        t += 8 + rng.uniform_int(0, 3);
      } else {
        // Manual stage: minutes to days, high variability (lognormal).
        const double gap = std::exp(rng.normal(std::log(2.0 * util::kHour), 1.3));
        t += std::max<util::SimTime>(30, static_cast<util::SimTime>(gap));
      }
    }
  }
  const util::SimTime core_end = t;
  const util::SimTime window_start = incident.start - util::kDay;

  // --- Extra distinct attack-attempt types in the window (Jaccard diluter).
  const auto n_extras =
      static_cast<std::size_t>(rng.uniform_int(kMinExtraTypes, kMaxExtraTypes));
  const auto extra_idx = rng.sample_indices(kNoisePool.size(), n_extras);
  std::vector<AlertType> repeat_candidates;
  for (const auto idx : extra_idx) {
    const AlertType type = kNoisePool[idx];
    const util::SimTime ts = window_start + rng.uniform_int(0, core_end - window_start);
    push(ts, type, /*related=*/true, /*core=*/false, alerts::info(type).typical_stage);
    if (repeatable(type)) repeat_candidates.push_back(type);
  }
  for (const auto type : seq.alerts) {
    if (repeatable(type)) repeat_candidates.push_back(type);
  }

  // --- Repeated inconclusive attempts (scan/bruteforce bursts). These
  // dominate the filtered volume, as in the paper (~80K of 94K daily).
  if (!repeat_candidates.empty()) {
    const auto n_rep = rng.poisson(kMeanRepetitions * config_.repetition_scale);
    util::SimTime rep_t = window_start;
    for (std::uint64_t i = 0; i < n_rep; ++i) {
      const AlertType type =
          repeat_candidates[rng.uniform_int(0, static_cast<std::int64_t>(
                                                   repeat_candidates.size()) - 1)];
      rep_t += 1 + static_cast<util::SimTime>(rng.exponential(1.0 / 30.0));
      push(rep_t, type, /*related=*/true, /*core=*/false, AttackStage::kSuspicious);
    }
  }

  // --- Legitimate activity interleaved in the window.
  const auto n_benign =
      static_cast<std::size_t>(rng.uniform_int(kMinBenignAlerts, kMaxBenignAlerts));
  for (std::size_t i = 0; i < n_benign; ++i) {
    std::vector<double> weights;
    weights.reserve(kBenignPool.size());
    for (const auto type : kBenignPool) weights.push_back(alerts::info(type).p_in_benign);
    const AlertType type = kBenignPool[rng.weighted_index(weights)];
    const util::SimTime ts = window_start + rng.uniform_int(0, core_end - window_start);
    push(ts, type, /*related=*/false, /*core=*/false, AttackStage::kBenign);
  }

  // --- Ambiguous alerts that defeat type-only auto-annotation (the 0.3%):
  // the attacker's own successful login with stolen credentials (benign
  // type, attack-related) and a legitimate user's compile job (attack-ish
  // type, benign) — exactly the collision class the paper describes.
  for (std::size_t i = 0; i < kAmbiguousPerIncident; ++i) {
    if (i % 2 == 0) {
      // Benign-typed activity by the attacker's account; the type varies
      // per incident so it does not become a universally shared set member.
      const util::SimTime ts = incident.start + rng.uniform_int(0, 2 * util::kHour);
      const AlertType benign_type =
          kBenignPool[rng.uniform_int(0, static_cast<std::int64_t>(kBenignPool.size()) - 1)];
      push(ts, benign_type, /*related=*/true, /*core=*/false, AttackStage::kInProgress);
    } else {
      const util::SimTime ts = window_start + rng.uniform_int(0, core_end - window_start);
      push(ts, AlertType::kCompileSource, /*related=*/false, /*core=*/false,
           AttackStage::kBenign);
    }
  }

  // Finalize: order the timeline, stamp damage time and raw-window volume.
  std::sort(incident.timeline.begin(), incident.timeline.end(),
            [](const LabeledAlert& a, const LabeledAlert& b) { return a.alert.ts < b.alert.ts; });
  incident.end = incident.timeline.back().alert.ts;
  for (const auto& entry : incident.timeline) {
    if (entry.alert.critical()) {
      incident.damage_ts = entry.alert.ts;
      break;
    }
  }
  incident.raw_alert_count = rng.poisson(kMeanRawAlerts);
  return incident;
}

}  // namespace at::incidents
