#pragma once
// The deployed detector stack, built in one place: the factor-graph model
// (ref [6]) and the rule-based signature matcher (ref [5]) side by side,
// trained on the curated corpus. The Testbed, `attacktagger detect`,
// bench_daemon's identity phases and the quickstart and honeypot_live
// examples all register deployed_detectors().
//
// The trained model also serializes to a versioned text format, so a
// production deployment can train offline on the corpus and ship the model
// to the live pipeline (and experiments are reproducible bit-for-bit):
//
//   attacktagger-model v3
//   stages S alert_types T
//   prior|transition|emission|gap N, then N hex-exact doubles (%a)
//   signatures N, then N lines: the name, then the alert-type symbols

#include <optional>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "testbed/pipeline.hpp"

namespace at::testbed {

struct DeployedModel {
  fg::ModelParams params;
  /// Signature names are single whitespace-free tokens (train_model's are
  /// `sig-N`); each signature holds 1..kMaxSignatureLength alert types.
  std::vector<detect::RuleBasedDetector::Signature> signatures;
};

/// learn_params plus RuleBasedDetector::train on the same corpus.
[[nodiscard]] DeployedModel train_model(const incidents::Corpus& training);

/// Factor-graph (posterior `threshold`), then rule-based. The parameters
/// are compiled once and the rule table built once: each per-entity
/// factory call is a refcount bump plus a copy.
[[nodiscard]] DetectorFactories deployed_detectors(const DeployedModel& model,
                                                   double threshold);

/// Serialize the model (text, hex-exact doubles, versioned header).
[[nodiscard]] std::string write_model(const DeployedModel& model);

/// A parsed model file, or why it was refused.
struct ModelRead {
  std::optional<DeployedModel> model;
  std::string error;  ///< set exactly when `model` is empty
};

/// Parse a model file. Never throws on malformed text: a wrong version,
/// shape mismatch, corrupt value, unknown alert symbol, oversized or empty
/// signature or short block is a rejection with a message.
[[nodiscard]] ModelRead read_model(const std::string& text);

}  // namespace at::testbed
