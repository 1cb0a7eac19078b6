#include "testbed/deployed.hpp"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "util/parse.hpp"
#include "util/strings.hpp"

namespace at::testbed {

namespace {

constexpr std::string_view kMagicPrefix = "attacktagger-model v";
constexpr std::string_view kMagic = "attacktagger-model v3";

/// Hex-exact double encoding (%a round trips bit-for-bit).
std::string encode(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

std::optional<double> decode(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return value;
}

void emit_block(std::ostringstream& out, const char* name,
                const std::vector<double>& values) {
  out << name << ' ' << values.size() << '\n';
  for (const double v : values) out << encode(v) << '\n';
}

bool read_block(const std::vector<std::string>& lines, std::size_t& cursor,
                const char* name, std::size_t expected, std::vector<double>& out) {
  if (cursor >= lines.size()) return false;
  const auto header = util::split_ws(lines[cursor++]);
  if (header.size() != 2 || header[0] != name) return false;
  const auto count = util::parse_num<std::size_t>(header[1]);
  if (!count || *count != expected || cursor + *count > lines.size()) return false;
  out.clear();
  out.reserve(*count);
  for (std::size_t i = 0; i < *count; ++i) {
    const auto value = decode(std::string(util::trim(lines[cursor++])));
    if (!value) return false;
    out.push_back(*value);
  }
  return true;
}

ModelRead reject(std::string error) { return ModelRead{std::nullopt, std::move(error)}; }

/// One signature line: the name, then 1..kMaxSignatureLength alert-type
/// symbols. Returns the rejection message, empty on success.
std::string read_signature(const std::string& line,
                           detect::RuleBasedDetector::Signature& out) {
  const auto tokens = util::split_ws(line);
  if (tokens.size() < 2) return "empty or truncated signature line";
  const std::size_t length = tokens.size() - 1;
  if (length > detect::RuleBasedDetector::kMaxSignatureLength) {
    return "signature " + tokens[0] + " has " + std::to_string(length) +
           " alerts; the limit is " +
           std::to_string(detect::RuleBasedDetector::kMaxSignatureLength);
  }
  out.name = tokens[0];
  out.alerts.clear();
  out.alerts.reserve(length);
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto type = alerts::from_symbol(tokens[t]);
    if (!type) return "signature " + tokens[0] + " names unknown alert '" + tokens[t] + "'";
    out.alerts.push_back(*type);
  }
  return {};
}

}  // namespace

DeployedModel train_model(const incidents::Corpus& training) {
  return DeployedModel{fg::learn_params(training),
                       detect::RuleBasedDetector::train(training.incidents).signatures()};
}

DetectorFactories deployed_detectors(const DeployedModel& model, double threshold) {
  DetectorFactories factories;
  factories.emplace_back(
      "factor-graph", [compiled = fg::compile_params(model.params), threshold] {
        return std::make_unique<detect::FactorGraphDetector>(compiled, threshold);
      });
  factories.emplace_back(
      "rule-based", [rules = detect::RuleBasedDetector(model.signatures)] {
        // Each entity gets a fresh matcher over the shared signature set:
        // the copy shares the compiled signature table and owns only its
        // progress bytes.
        return std::make_unique<detect::RuleBasedDetector>(rules);
      });
  return factories;
}

std::string write_model(const DeployedModel& model) {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "stages " << alerts::kNumStages << " alert_types " << alerts::kNumAlertTypes
      << '\n';
  emit_block(out, "prior", model.params.log_prior);
  emit_block(out, "transition", model.params.log_transition);
  emit_block(out, "emission", model.params.log_emission);
  emit_block(out, "gap", model.params.log_gap);
  out << "signatures " << model.signatures.size() << '\n';
  for (const auto& signature : model.signatures) {
    out << signature.name;
    for (const alerts::AlertType type : signature.alerts) out << ' ' << alerts::symbol(type);
    out << '\n';
  }
  return out.str();
}

ModelRead read_model(const std::string& text) {
  const auto lines = util::split(text, '\n');
  std::size_t cursor = 0;
  const std::string_view magic = lines.empty() ? std::string_view{} : util::trim(lines[cursor++]);
  if (!util::starts_with(magic, kMagicPrefix)) return reject("not an attacktagger model");
  if (magic != kMagic) {
    // One reader: an older file is refused, not converted.
    return reject("model file is " + std::string(magic.substr(0, 64)) + "; this build reads " +
                  std::string(kMagic) + " only: rerun `attacktagger train` to write one");
  }
  if (cursor >= lines.size()) return reject("missing shape line");
  const auto shape = util::split_ws(lines[cursor++]);
  if (shape.size() != 4 || shape[0] != "stages" || shape[2] != "alert_types") {
    return reject("malformed shape line");
  }
  // parse_num, not std::stoul: a non-numeric shape line is a rejection,
  // not an uncaught std::invalid_argument.
  const auto stages = util::parse_num<std::size_t>(shape[1]);
  const auto types = util::parse_num<std::size_t>(shape[3]);
  if (!stages || !types || *stages != alerts::kNumStages || *types != alerts::kNumAlertTypes) {
    return reject("model shape does not match this build's taxonomy");
  }
  DeployedModel model;
  fg::ModelParams& params = model.params;
  if (!read_block(lines, cursor, "prior", alerts::kNumStages, params.log_prior)) {
    return reject("malformed prior block");
  }
  if (!read_block(lines, cursor, "transition", alerts::kNumStages * alerts::kNumStages,
                  params.log_transition)) {
    return reject("malformed transition block");
  }
  if (!read_block(lines, cursor, "emission",
                  alerts::kNumStages * alerts::kNumAlertTypes, params.log_emission)) {
    return reject("malformed emission block");
  }
  if (!read_block(lines, cursor, "gap", alerts::kNumStages * fg::kNumGapBuckets,
                  params.log_gap)) {
    return reject("malformed gap block");
  }

  if (cursor >= lines.size()) return reject("missing signatures block");
  const auto header = util::split_ws(lines[cursor++]);
  if (header.size() != 2 || header[0] != "signatures") {
    return reject("malformed signatures header");
  }
  const auto count = util::parse_num<std::size_t>(header[1]);
  if (!count || *count > lines.size() - cursor) {
    return reject("signatures block is shorter than its count");
  }
  model.signatures.resize(*count);
  for (auto& signature : model.signatures) {
    auto error = read_signature(lines[cursor++], signature);
    if (!error.empty()) return reject(std::move(error));
  }
  for (; cursor < lines.size(); ++cursor) {
    if (!util::trim(lines[cursor]).empty()) return reject("text after the signatures block");
  }
  return ModelRead{std::move(model), {}};
}

}  // namespace at::testbed
