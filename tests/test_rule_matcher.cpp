// RuleBasedDetector against the matcher it replaced. The detector now keeps
// its signatures in one shared, compiled table and visits only the
// signatures that contain the observed alert type; the all-signatures scan
// it replaced lives on here verbatim as the reference. On seeded random
// signature sets (empty signatures, repeated types within a signature,
// duplicate signatures, runtime additions) and on the trained corpus
// ruleset over the detector-ablation streams, every alert must give the
// same firing decision, index, timestamp, score and reason.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "detect/eval.hpp"
#include "incidents/generator.hpp"
#include "incidents/noise.hpp"
#include "util/rng.hpp"

namespace at {
namespace reference {

using detect::Detection;
using detect::Detector;

// --- verbatim: the replaced detect::RuleBasedDetector (declaration, then
// body) ---

/// Matches known signature subsequences (learned from training incidents).
class RuleBasedDetector final : public Detector {
 public:
  struct Signature {
    std::string name;
    std::vector<alerts::AlertType> alerts;
  };

  explicit RuleBasedDetector(std::vector<Signature> signatures);

  /// Extract signatures from training incidents: the pre-damage prefix of
  /// each distinct core sequence, truncated to `max_len` alerts
  /// (Insight 2's effective range) and deduplicated.
  static RuleBasedDetector train(const std::vector<incidents::Incident>& training,
                                 std::size_t max_len = 4, std::size_t min_len = 2);

  [[nodiscard]] std::string name() const override { return "rule-based"; }
  [[nodiscard]] std::size_t signature_count() const noexcept { return signatures_.size(); }
  /// Add a signature at runtime — the paper's feedback loop where alerts
  /// from a preempted attack refine the deployed ruleset.
  void add_signature(Signature signature);
  void reset() override;
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  std::vector<Signature> signatures_;
  std::vector<std::size_t> progress_;  ///< matched prefix length per signature
  bool fired_ = false;
};

RuleBasedDetector::RuleBasedDetector(std::vector<Signature> signatures)
    : signatures_(std::move(signatures)) {
  progress_.assign(signatures_.size(), 0);
}

RuleBasedDetector RuleBasedDetector::train(const std::vector<incidents::Incident>& training,
                                           std::size_t max_len, std::size_t min_len) {
  std::set<std::vector<alerts::AlertType>> distinct;
  for (const auto& incident : training) {
    auto core = incident.core_sequence();
    // Keep only the pre-damage prefix: signatures must be usable *before*
    // irreversible damage, so everything from the first critical alert on
    // is dropped.
    const auto first_critical =
        std::find_if(core.begin(), core.end(),
                     [](alerts::AlertType t) { return alerts::is_critical(t); });
    core.erase(first_critical, core.end());
    if (core.size() > max_len) core.resize(max_len);
    if (core.size() >= min_len) distinct.insert(std::move(core));
  }
  std::vector<Signature> signatures;
  std::size_t id = 0;
  for (const auto& alerts_seq : distinct) {
    signatures.push_back(Signature{"sig-" + std::to_string(++id), alerts_seq});
  }
  return RuleBasedDetector(std::move(signatures));
}

void RuleBasedDetector::add_signature(Signature signature) {
  signatures_.push_back(std::move(signature));
  progress_.push_back(0);
}

void RuleBasedDetector::reset() {
  fired_ = false;
  std::fill(progress_.begin(), progress_.end(), 0);
}

std::optional<Detection> RuleBasedDetector::observe(const alerts::Alert& alert,
                                                    std::size_t index) {
  if (fired_) return std::nullopt;
  for (std::size_t s = 0; s < signatures_.size(); ++s) {
    const auto& signature = signatures_[s].alerts;
    if (progress_[s] < signature.size() && signature[progress_[s]] == alert.type) {
      ++progress_[s];
      if (progress_[s] == signature.size()) {
        fired_ = true;
        return Detection{index, alert.ts, 1.0, "matched " + signatures_[s].name};
      }
    }
  }
  return std::nullopt;
}

// --- end verbatim ---

}  // namespace reference

namespace {

using alerts::Alert;
using alerts::AlertType;
using Matcher = detect::RuleBasedDetector;
using Reference = reference::RuleBasedDetector;

/// Feeds one alert to both matchers; returns whether they fired. Any
/// difference in the firing decision or the detection fails the test.
bool observe_both(Matcher& matcher, Reference& ref, const Alert& alert, std::size_t index,
                  const std::string& where) {
  const auto got = matcher.observe(alert, index);
  const auto want = ref.observe(alert, index);
  EXPECT_EQ(got.has_value(), want.has_value()) << where;
  if (got && want) {
    EXPECT_EQ(got->alert_index, want->alert_index) << where;
    EXPECT_EQ(got->ts, want->ts) << where;
    EXPECT_EQ(got->score, want->score) << where;
    EXPECT_EQ(got->reason, want->reason) << where;
  }
  return got.has_value() && want.has_value();
}

std::vector<Matcher::Signature> to_signatures(const std::vector<Reference::Signature>& in) {
  std::vector<Matcher::Signature> out;
  out.reserve(in.size());
  for (const auto& signature : in) out.push_back({signature.name, signature.alerts});
  return out;
}

/// A small alphabet per set, so repeated types within a signature, shared
/// types across signatures and streams that complete them are all common.
std::vector<AlertType> draw_alphabet(util::Rng& rng) {
  const auto size = static_cast<std::size_t>(rng.uniform_int(1, 8));
  std::vector<AlertType> alphabet;
  for (std::size_t i = 0; i < size; ++i) {
    alphabet.push_back(static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1)));
  }
  return alphabet;
}

Reference::Signature draw_signature(util::Rng& rng, const std::vector<AlertType>& alphabet,
                                    const std::vector<Reference::Signature>& so_far,
                                    std::size_t id) {
  // Duplicate an earlier signature (under a new name) now and then.
  if (!so_far.empty() && rng.bernoulli(0.15)) {
    const auto& earlier = so_far[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(so_far.size()) - 1))];
    return {"dup-" + std::to_string(id), earlier.alerts};
  }
  Reference::Signature signature{"s-" + std::to_string(id), {}};
  const auto length = rng.uniform_int(0, 5);
  for (std::int64_t i = 0; i < length; ++i) {
    signature.alerts.push_back(alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
  }
  return signature;
}

AlertType draw_stream_type(util::Rng& rng, const std::vector<AlertType>& alphabet) {
  const double u = rng.uniform();
  if (u < 0.02) return static_cast<AlertType>(255);  // outside the taxonomy
  if (u < 0.03) return static_cast<AlertType>(alerts::kNumAlertTypes);
  if (u < 0.80) {
    return alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
  }
  return static_cast<AlertType>(
      rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
}

TEST(RuleMatcherDifferential, RandomSignatureSetsMatchReference) {
  constexpr std::size_t kSets = 12000;
  constexpr std::size_t kStreamsPerSet = 3;
  constexpr std::size_t kStreamLength = 60;
  util::Rng rng(0x5161a7u);
  std::size_t fires = 0;
  std::size_t additions = 0;
  for (std::size_t set = 0; set < kSets; ++set) {
    const auto alphabet = draw_alphabet(rng);
    std::vector<Reference::Signature> signatures;
    const auto count = rng.uniform_int(0, 40);
    for (std::int64_t i = 0; i < count; ++i) {
      signatures.push_back(draw_signature(rng, alphabet, signatures, signatures.size()));
    }
    Matcher matcher(to_signatures(signatures));
    Reference ref(signatures);
    ASSERT_EQ(matcher.signatures().size(), ref.signature_count());
    for (std::size_t stream = 0; stream < kStreamsPerSet; ++stream) {
      matcher.reset();
      ref.reset();
      // Half the streams also grow the ruleset mid-stream (the feedback
      // loop), which rebuilds this matcher's table.
      const std::size_t add_at = rng.bernoulli(0.5)
                                     ? static_cast<std::size_t>(rng.uniform_int(0, 59))
                                     : kStreamLength;
      util::SimTime ts = 0;
      for (std::size_t i = 0; i < kStreamLength; ++i) {
        if (i == add_at) {
          auto added = draw_signature(rng, alphabet, signatures, signatures.size());
          signatures.push_back(added);
          matcher.add_signature({added.name, added.alerts});
          ref.add_signature(std::move(added));
          ++additions;
        }
        Alert alert;
        ts += rng.uniform_int(1, 600);
        alert.ts = ts;
        alert.type = draw_stream_type(rng, alphabet);
        const std::string where = "set " + std::to_string(set) + " stream " +
                                  std::to_string(stream) + " alert " + std::to_string(i);
        if (observe_both(matcher, ref, alert, i, where)) ++fires;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // The generator must exercise both outcomes heavily.
  EXPECT_GT(fires, kSets / 2);
  EXPECT_GT(additions, kSets / 2);
}

TEST(RuleMatcherDifferential, TrainedRulesetOnAblationStreams) {
  // The detector-ablation workbench: corpus, split, held-out attack
  // streams and 30 benign days of 1000 alerts.
  incidents::CorpusConfig config;
  config.repetition_scale = 0.05;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  const auto split = detect::split_corpus(corpus);
  std::vector<detect::Stream> streams;
  for (const auto& incident : split.test) streams.push_back(detect::attack_stream(incident));
  incidents::DailyNoiseModel noise;
  for (auto& stream : detect::benign_streams(noise, 0, 30, 1000)) {
    streams.push_back(std::move(stream));
  }

  const auto ref = Reference::train(split.train.incidents);
  const auto trained = Matcher::train(split.train.incidents);
  ASSERT_EQ(trained.signatures().size(), ref.signature_count());
  ASSERT_GT(trained.signatures().size(), 10u);
  std::size_t fires = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    Matcher matcher = trained;
    Reference reference = ref;
    matcher.reset();
    reference.reset();
    const auto& alerts = streams[s].alerts;
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      if (observe_both(matcher, reference, alerts[i], i,
                       "stream " + std::to_string(s) + " alert " + std::to_string(i))) {
        ++fires;
      }
    }
  }
  EXPECT_GT(fires, 0u);
}

TEST(RuleMatcherDifferential, OutOfRangeTypeMatchesNothing) {
  const std::vector<Reference::Signature> signatures = {
      {"one", {AlertType::kPortScan}},
      {"two", {AlertType::kPortScan, AlertType::kSshBruteforce}}};
  Matcher matcher(to_signatures(signatures));
  Reference ref(signatures);
  matcher.reset();
  ref.reset();
  Alert alert;
  alert.type = static_cast<AlertType>(255);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(observe_both(matcher, ref, alert, i, "out-of-range alert"));
  }
  alert.type = AlertType::kPortScan;
  EXPECT_TRUE(observe_both(matcher, ref, alert, 4, "in-range alert after"));
}

}  // namespace
}  // namespace at
