#pragma once
// Statistical corpus generator.
//
// The paper's 24-year incident corpus (Table I) cannot be shipped; this
// generator synthesizes a corpus with the same aggregate properties, so the
// downstream analyses *measure back* the paper's numbers instead of having
// them hard-coded:
//   - 228 incidents (2002-2024), one per catalog-sequence instantiation
//   - ~25M raw alerts across all incident windows (counted, not stored)
//   - ~191K filtered alerts directly related to the attacks (materialized)
//   - 137 incidents (60.08%) containing the download/compile/wipe motif
//   - 98 critical-alert occurrences over 19 distinct critical types
//   - pairwise attack-set Jaccard similarity with >=95% of pairs <= 0.33
//   - recon-phase inter-alert gaps tight, manual-phase gaps highly variable
//   - ~0.3% of filtered alerts ambiguous (need expert annotation)

#include <cstdint>
#include <vector>

#include "incidents/catalog.hpp"
#include "incidents/incident.hpp"
#include "util/rng.hpp"

namespace at::incidents {

struct CorpusConfig {
  std::uint64_t seed = 42;
  /// Scale on the mean repeated-attempt count per incident (1.0 gives the
  /// paper's ~191K filtered alerts); tests use a small value for speed.
  double repetition_scale = 1.0;
  /// Worker threads for incident synthesis (incidents draw from forked,
  /// per-incident RNG streams, so the output is bit-identical at any
  /// thread count). 0 = hardware concurrency, 1 = serial.
  std::size_t threads = 0;
};

struct CorpusStats {
  std::uint64_t raw_alerts = 0;       ///< counted pre-filter volume (~25M)
  std::uint64_t filtered_alerts = 0;  ///< materialized timeline alerts (~191K)
  std::uint64_t ambiguous_alerts = 0; ///< needing expert annotation (~0.3%)
  std::size_t incidents = 0;          ///< 228
  std::size_t motif_incidents = 0;    ///< 137
  std::uint64_t critical_occurrences = 0;  ///< 98
};

struct Corpus {
  Catalog catalog;
  std::vector<Incident> incidents;
  CorpusStats stats;
};

class CorpusGenerator {
 public:
  explicit CorpusGenerator(CorpusConfig config = {}) : config_(config) {}

  /// Generate the full calibrated corpus (deterministic in config.seed).
  [[nodiscard]] Corpus generate() const;

  [[nodiscard]] const CorpusConfig& config() const noexcept { return config_; }

 private:
  Incident make_incident(std::uint32_t id, std::uint32_t seq_index,
                         const CatalogSequence& seq, util::Rng& rng) const;

  CorpusConfig config_;
};

}  // namespace at::incidents
