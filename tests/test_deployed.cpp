// The deployed detector stack (testbed/deployed.hpp): the model file's
// bit-exact round trip, its rejection of corrupt and hostile files, and
// the one factory list the Testbed, `attacktagger detect` and bench_daemon
// register.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "incidents/generator.hpp"
#include "testbed/deployed.hpp"
#include "testbed/pipeline.hpp"
#include "testbed/testbed.hpp"
#include "util/logdomain.hpp"
#include "util/strings.hpp"

namespace at::testbed {
namespace {

const incidents::Corpus& corpus(std::uint64_t seed) {
  static std::map<std::uint64_t, incidents::Corpus> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    config.seed = seed;
    it = cache.emplace(seed, incidents::CorpusGenerator(config).generate()).first;
  }
  return it->second;
}

const DeployedModel& trained() {
  static const DeployedModel model = train_model(corpus(42));
  return model;
}

/// Every alert of a corpus the model was not trained on, time-sorted.
std::vector<alerts::Alert> stream() {
  std::vector<alerts::Alert> out;
  for (const auto& incident : corpus(5).incidents) {
    for (const auto& entry : incident.timeline) out.push_back(entry.alert);
  }
  alerts::sort_timeline(out);
  return out;
}

/// One line per notification, scores at round-trip precision.
std::string render(const std::vector<Notification>& notes) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& note : notes) {
    out << note.ts << '\t' << note.entity << '\t' << note.detector << '\t' << note.reason
        << '\t' << note.score << '\t' << (note.source ? note.source->str() : "-") << '\n';
  }
  return out.str();
}

/// The rendered notifications of a serial pipeline over the factories.
std::string verdicts(const DetectorFactories& factories,
                     const std::vector<alerts::Alert>& alerts) {
  bhr::BlackHoleRouter router;
  AlertPipeline pipeline(PipelineConfig{}, &router);
  for (const auto& [name, factory] : factories) pipeline.add_detector(name, factory);
  for (const auto& alert : alerts) pipeline.on_alert(alert);
  return render(pipeline.notifications());
}

std::string error_of(const std::string& text) {
  const ModelRead read = read_model(text);
  EXPECT_FALSE(read.model.has_value());
  return read.error;
}

TEST(ParamsIo, RoundTripIsBitExact) {
  const auto text = write_model(trained());
  const auto back = read_model(text);
  ASSERT_TRUE(back.model.has_value()) << back.error;
  const fg::ModelParams& params = back.model->params;
  const fg::ModelParams& original = trained().params;
  ASSERT_EQ(params.log_prior.size(), original.log_prior.size());
  for (std::size_t i = 0; i < original.log_prior.size(); ++i) {
    EXPECT_EQ(params.log_prior[i], original.log_prior[i]);
  }
  for (std::size_t i = 0; i < original.log_transition.size(); ++i) {
    EXPECT_EQ(params.log_transition[i], original.log_transition[i]);
  }
  for (std::size_t i = 0; i < original.log_emission.size(); ++i) {
    EXPECT_EQ(params.log_emission[i], original.log_emission[i]);
  }
  ASSERT_EQ(back.model->signatures.size(), trained().signatures.size());
  for (std::size_t s = 0; s < trained().signatures.size(); ++s) {
    EXPECT_EQ(back.model->signatures[s].name, trained().signatures[s].name);
    EXPECT_EQ(back.model->signatures[s].alerts, trained().signatures[s].alerts);
  }
}

TEST(ParamsIo, LoadedModelDetectsIdentically) {
  const auto back = read_model(write_model(trained()));
  ASSERT_TRUE(back.model.has_value()) << back.error;
  const std::vector<alerts::AlertType> attack = {alerts::AlertType::kDownloadSensitive,
                                                 alerts::AlertType::kCompileSource,
                                                 alerts::AlertType::kLogTampering};
  fg::EntityFilter original(fg::compile_params(trained().params));
  fg::EntityFilter reloaded(fg::compile_params(back.model->params));
  for (const auto type : attack) {
    original.observe(type, fg::GapBucket::kHours);
    reloaded.observe(type, fg::GapBucket::kHours);
  }
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    EXPECT_EQ(original.last_stage()[s], reloaded.last_stage()[s]);
  }
}

TEST(ParamsIo, RejectsCorruption) {
  const auto text = write_model(trained());
  EXPECT_FALSE(read_model("").model.has_value());
  EXPECT_FALSE(read_model("not a model").model.has_value());
  // Wrong magic.
  EXPECT_FALSE(read_model(util::replace_all(text, "v3", "v9")).model.has_value());
  // Truncated.
  EXPECT_FALSE(read_model(text.substr(0, text.size() / 2)).model.has_value());
  // Shape mismatch.
  EXPECT_FALSE(read_model(util::replace_all(text, "stages 4", "stages 5")).model.has_value());
  // Garbage value.
  auto corrupted = text;
  const auto pos = corrupted.find("0x");
  corrupted.replace(pos, 2, "zz");
  EXPECT_FALSE(read_model(corrupted).model.has_value());
}

TEST(ParamsIo, NegativeInfinityRoundTrips) {
  // Laplace smoothing keeps everything finite, but a zero-count row in a
  // hand-built model yields -inf; the format must carry it.
  DeployedModel model = trained();
  model.params.log_prior[0] = util::kLogZero;
  const auto back = read_model(write_model(model));
  ASSERT_TRUE(back.model.has_value()) << back.error;
  EXPECT_EQ(back.model->params.log_prior[0], util::kLogZero);
}

// --- hostile model files: a rejection with a message, never a throw ------

/// The model text with its signatures block replaced by `block`.
std::string with_signatures(const std::string& block) {
  const auto text = write_model(trained());
  return text.substr(0, text.find("signatures ")) + block;
}

TEST(ModelIo, RefusesAnOlderVersionByName) {
  const auto text = util::replace_all(write_model(trained()), "model v3", "model v2");
  const auto error = error_of(text);
  EXPECT_NE(error.find("attacktagger-model v2"), std::string::npos) << error;
  EXPECT_NE(error.find("attacktagger train"), std::string::npos) << error;
  // A v2 file had no signatures block at all.
  EXPECT_NE(error_of(text.substr(0, text.find("signatures "))).find("v2"), std::string::npos);
}

TEST(ModelIo, RejectsAnUnknownAlertSymbol) {
  const auto error =
      error_of(with_signatures("signatures 1\nsig-1 alert_download_sensitive alert_nope\n"));
  EXPECT_NE(error.find("alert_nope"), std::string::npos) << error;
  // A symbol cut short is unknown too.
  error_of(with_signatures("signatures 1\nsig-1 alert_download_sensitive alert_downl\n"));
}

TEST(ModelIo, RejectsASignatureLongerThanTheMatcherTracks) {
  const std::string symbol(alerts::symbol(alerts::AlertType::kDownloadSensitive));
  std::string line = "sig-long";
  for (std::size_t i = 0; i <= detect::RuleBasedDetector::kMaxSignatureLength; ++i) {
    line += ' ' + symbol;
  }
  const auto error = error_of(with_signatures("signatures 1\n" + line + "\n"));
  EXPECT_NE(error.find("limit"), std::string::npos) << error;
  // At the limit it loads, and the stack builds without throwing.
  const std::string at_limit = line.substr(0, line.rfind(' '));
  const auto read = read_model(with_signatures("signatures 1\n" + at_limit + "\n"));
  ASSERT_TRUE(read.model.has_value()) << read.error;
  EXPECT_EQ(read.model->signatures[0].alerts.size(),
            detect::RuleBasedDetector::kMaxSignatureLength);
  EXPECT_EQ(deployed_detectors(*read.model, 0.75).size(), 2u);
}

TEST(ModelIo, RejectsACountLargerThanTheRemainingLines) {
  const auto& sigs = trained().signatures;
  ASSERT_FALSE(sigs.empty());
  const auto text = write_model(trained());
  const std::string header = "signatures " + std::to_string(sigs.size());
  error_of(util::replace_all(text, header, "signatures " + std::to_string(sigs.size() + 5)));
  error_of(util::replace_all(text, header, "signatures 18446744073709551615"));
  error_of(util::replace_all(text, header, "signatures 99999999999999999999999"));
  error_of(util::replace_all(text, header, "signatures -1"));
  error_of(with_signatures("signatures 3\nsig-1 alert_download_sensitive\n"));
}

TEST(ModelIo, RejectsATruncatedOrEmptySignatureLine) {
  // A name with no alerts, an empty line, a missing block, a cut header.
  error_of(with_signatures("signatures 2\nsig-1 alert_download_sensitive\nsig-2\n"));
  error_of(with_signatures("signatures 2\n\nsig-2 alert_download_sensitive\n"));
  error_of(with_signatures("signatures 1\n   \n"));
  error_of(with_signatures(""));
  error_of(with_signatures("signatures"));
  error_of(with_signatures("signatures 1 2\nsig-1 alert_download_sensitive\n"));
  // Text after the block.
  error_of(with_signatures("signatures 1\nsig-1 alert_download_sensitive\nextra\n"));
  // An empty block is a model with no signatures.
  const auto read = read_model(with_signatures("signatures 0\n"));
  ASSERT_TRUE(read.model.has_value()) << read.error;
  EXPECT_TRUE(read.model->signatures.empty());
}

TEST(ModelIo, ReloadedModelGivesByteIdenticalVerdicts) {
  const auto back = read_model(write_model(trained()));
  ASSERT_TRUE(back.model.has_value()) << back.error;
  const auto alerts = stream();
  const std::string original = verdicts(deployed_detectors(trained(), 0.75), alerts);
  EXPECT_EQ(verdicts(deployed_detectors(*back.model, 0.75), alerts), original);
  // Both detector families fire on the stream, so the check covers both.
  EXPECT_NE(original.find("\tfactor-graph\t"), std::string::npos);
  EXPECT_NE(original.find("\trule-based\t"), std::string::npos);
}

// --- the deployed stack ---------------------------------------------------

TEST(DeployedStack, FactorGraphThenRuleBased) {
  const auto factories = deployed_detectors(trained(), 0.75);
  ASSERT_EQ(factories.size(), 2u);
  EXPECT_EQ(factories[0].first, "factor-graph");
  EXPECT_EQ(factories[1].first, "rule-based");
  // Each factory builds a fresh detector of the family it names.
  for (const auto& [name, factory] : factories) {
    const auto a = factory();
    const auto b = factory();
    ASSERT_NE(a, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->name(), name);
  }
}

TEST(DeployedStack, TestbedRunsTheDeployedStack) {
  const auto alerts = stream();
  Testbed bed(TestbedConfig{}, corpus(42));
  for (const auto& alert : alerts) bed.pipeline().on_alert(alert);
  const std::string expected =
      verdicts(deployed_detectors(train_model(corpus(42)), 0.75), alerts);
  EXPECT_NE(expected.find("\trule-based\t"), std::string::npos);
  EXPECT_EQ(render(bed.pipeline().notifications()), expected);
}

}  // namespace
}  // namespace at::testbed
