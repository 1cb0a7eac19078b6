// Model persistence round trips (bit-exact) and corruption handling.

#include <gtest/gtest.h>

#include "fg/params_io.hpp"
#include "incidents/generator.hpp"
#include "util/logdomain.hpp"
#include "util/strings.hpp"

namespace at::fg {
namespace {

const ModelParams& trained() {
  static const ModelParams params = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return params;
}

TEST(ParamsIo, RoundTripIsBitExact) {
  const auto text = write_params(trained());
  const auto back = read_params(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->log_prior.size(), trained().log_prior.size());
  for (std::size_t i = 0; i < trained().log_prior.size(); ++i) {
    EXPECT_EQ(back->log_prior[i], trained().log_prior[i]);
  }
  for (std::size_t i = 0; i < trained().log_transition.size(); ++i) {
    EXPECT_EQ(back->log_transition[i], trained().log_transition[i]);
  }
  for (std::size_t i = 0; i < trained().log_emission.size(); ++i) {
    EXPECT_EQ(back->log_emission[i], trained().log_emission[i]);
  }
}

TEST(ParamsIo, LoadedModelDetectsIdentically) {
  const auto back = read_params(write_params(trained()));
  ASSERT_TRUE(back.has_value());
  const std::vector<alerts::AlertType> attack = {alerts::AlertType::kDownloadSensitive,
                                                 alerts::AlertType::kCompileSource,
                                                 alerts::AlertType::kLogTampering};
  EntityFilter original(compile_params(trained()));
  EntityFilter reloaded(compile_params(*back));
  for (const auto type : attack) {
    original.observe(type, GapBucket::kHours);
    reloaded.observe(type, GapBucket::kHours);
  }
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    EXPECT_EQ(original.last_stage()[s], reloaded.last_stage()[s]);
  }
}

TEST(ParamsIo, RejectsCorruption) {
  const auto text = write_params(trained());
  EXPECT_FALSE(read_params("").has_value());
  EXPECT_FALSE(read_params("not a model").has_value());
  // Wrong magic.
  EXPECT_FALSE(read_params(util::replace_all(text, "v2", "v9")).has_value());
  // Truncated.
  EXPECT_FALSE(read_params(text.substr(0, text.size() / 2)).has_value());
  // Shape mismatch.
  EXPECT_FALSE(read_params(util::replace_all(text, "stages 4", "stages 5")).has_value());
  // Garbage value.
  auto corrupted = text;
  const auto pos = corrupted.find("0x");
  corrupted.replace(pos, 2, "zz");
  EXPECT_FALSE(read_params(corrupted).has_value());
}

TEST(ParamsIo, NegativeInfinityRoundTrips) {
  // Laplace smoothing keeps everything finite, but a zero-count row in a
  // hand-built model yields -inf; the format must carry it.
  ModelParams params = trained();
  params.log_prior[0] = util::kLogZero;
  const auto back = read_params(write_params(params));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->log_prior[0], util::kLogZero);
}

}  // namespace
}  // namespace at::fg
