// Threat-model sessionization rules (Section III-B) and Viterbi stage
// decoding (the AttackTagger per-event forensic tagging).

#include <gtest/gtest.h>

#include "detect/sessionizer.hpp"
#include "fg/model.hpp"
#include "fg_oracle/chain.hpp"
#include "incidents/generator.hpp"

namespace at {
namespace {

using alerts::Alert;
using alerts::AlertType;
using alerts::AttackStage;

Alert mk(util::SimTime ts, AlertType type, const std::string& user,
         std::optional<net::Ipv4> src, const std::string& host) {
  Alert alert;
  alert.ts = ts;
  alert.type = type;
  alert.user = user;
  alert.src = src;
  alert.host = host;
  return alert;
}

TEST(Sessionizer, SameAccountLateralMovementIsOneAttack) {
  // Rule: an attacker moving laterally under the same account = 1 attack.
  detect::AttackSessionizer sessionizer;
  const net::Ipv4 attacker(9, 9, 9, 9);
  const auto s1 = sessionizer.ingest(mk(1, AlertType::kSshLateralMove, "evil", attacker, "a"));
  const auto s2 = sessionizer.ingest(mk(2, AlertType::kSshLateralMove, "evil", attacker, "b"));
  const auto s3 = sessionizer.ingest(mk(3, AlertType::kSshLateralMove, "evil", attacker, "c"));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s2, s3);
  const auto* session = sessionizer.find(s1);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->hosts.size(), 3u);
  EXPECT_EQ(session->account, "evil");
}

TEST(Sessionizer, MultipleAttackersSameAccountIsOneAttack) {
  // Rule: multiple attackers using the same user account = 1 attack.
  detect::AttackSessionizer sessionizer;
  const auto s1 =
      sessionizer.ingest(mk(1, AlertType::kCredentialReuse, "ghost", net::Ipv4(1, 1, 1, 1), "h"));
  const auto s2 =
      sessionizer.ingest(mk(2, AlertType::kCredentialReuse, "ghost", net::Ipv4(2, 2, 2, 2), "h"));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(sessionizer.find(s1)->sources.size(), 2u);
}

TEST(Sessionizer, DifferentAccountsAreSeparateAttacks) {
  // Rule: one attacker using different user accounts = separate attacks.
  detect::AttackSessionizer sessionizer;
  const net::Ipv4 attacker(9, 9, 9, 9);
  const auto s1 =
      sessionizer.ingest(mk(1, AlertType::kCredentialReuse, "alice", attacker, "h"));
  const auto s2 =
      sessionizer.ingest(mk(2, AlertType::kCredentialReuse, "bob", attacker, "h"));
  EXPECT_NE(s1, s2);
  EXPECT_EQ(sessionizer.sessions().size(), 2u);
}

TEST(Sessionizer, AccountlessAlertsAttributeThroughKnownSource) {
  // Network alerts without an account attach to the session whose account
  // the source previously acted as.
  detect::AttackSessionizer sessionizer;
  const net::Ipv4 attacker(9, 9, 9, 9);
  const auto s1 =
      sessionizer.ingest(mk(1, AlertType::kGhostAccountLogin, "ghost", attacker, "h"));
  const auto s2 = sessionizer.ingest(mk(2, AlertType::kPortScan, "", attacker, "h2"));
  EXPECT_EQ(s1, s2);
}

TEST(Sessionizer, ProvisionalSourceSessionMergesIntoAccount) {
  // Probing precedes the login: the source-only session merges into the
  // account session once the account appears.
  detect::AttackSessionizer sessionizer;
  const net::Ipv4 attacker(9, 9, 9, 9);
  const auto s1 = sessionizer.ingest(mk(1, AlertType::kDbPortProbe, "", attacker, "pg-0"));
  const auto s2 =
      sessionizer.ingest(mk(2, AlertType::kDefaultPasswordLogin, "postgres", attacker, "pg-0"));
  EXPECT_NE(s1, s2);  // ids differ, but...
  const auto* account_session = sessionizer.find(s2);
  ASSERT_NE(account_session, nullptr);
  // ...the probe alert migrated into the account session.
  EXPECT_EQ(account_session->alerts.size(), 2u);
  EXPECT_TRUE(sessionizer.find(s1)->alerts.empty());
  // Later source-only alerts land in the account session directly.
  const auto s3 = sessionizer.ingest(mk(3, AlertType::kInternalScan, "", attacker, "pg-0"));
  EXPECT_EQ(s3, s2);
}

TEST(Sessionizer, HostLocalAlertsWithoutAttribution) {
  detect::AttackSessionizer sessionizer;
  const auto s1 = sessionizer.ingest(mk(1, AlertType::kFileDroppedTmp, "", std::nullopt, "h1"));
  const auto s2 = sessionizer.ingest(mk(2, AlertType::kFileDroppedTmp, "", std::nullopt, "h1"));
  const auto s3 = sessionizer.ingest(mk(3, AlertType::kFileDroppedTmp, "", std::nullopt, "h2"));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, s3);
}

TEST(Sessionizer, TimeSpanTracked) {
  detect::AttackSessionizer sessionizer;
  const net::Ipv4 attacker(9, 9, 9, 9);
  const auto id =
      sessionizer.ingest(mk(100, AlertType::kPortScan, "", attacker, "h"));
  sessionizer.ingest(mk(500, AlertType::kPortScan, "", attacker, "h"));
  const auto* session = sessionizer.find(id);
  EXPECT_EQ(session->first_ts, 100);
  EXPECT_EQ(session->last_ts, 500);
}

// --- Viterbi stage decoding ---

const fg::ModelParams& params() {
  static const fg::ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return fg::learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

TEST(DecodeStages, EmptyAndSingle) {
  EXPECT_TRUE(fg::decode_stages(params(), {}).empty());
  const std::vector<AlertType> one = {AlertType::kLoginSuccess};
  EXPECT_EQ(fg::decode_stages(params(), one).size(), 1u);
}

TEST(DecodeStages, AttackSequenceTagsEscalation) {
  const std::vector<AlertType> attack = {
      AlertType::kPortScan, AlertType::kDownloadSensitive, AlertType::kCompileSource,
      AlertType::kLogTampering, AlertType::kPrivilegeEscalation};
  const auto stages = fg::decode_stages(params(), attack);
  ASSERT_EQ(stages.size(), attack.size());
  // The foothold alerts decode as an attack in progress, the critical
  // alert as compromised, and stages never regress along the chain.
  EXPECT_GE(stages[1], AttackStage::kSuspicious);
  EXPECT_GE(stages[2], AttackStage::kInProgress);
  EXPECT_EQ(stages[4], AttackStage::kCompromised);
  for (std::size_t i = 1; i < stages.size(); ++i) {
    EXPECT_GE(static_cast<int>(stages[i]), static_cast<int>(stages[i - 1]) - 1);
  }
}

TEST(DecodeStages, BenignSequenceStaysBenign) {
  const std::vector<AlertType> benign = {AlertType::kLoginSuccess, AlertType::kJobSubmitted,
                                         AlertType::kJobCompleted, AlertType::kLogout};
  const auto stages = fg::decode_stages(params(), benign);
  for (const auto stage : stages) {
    EXPECT_LE(stage, AttackStage::kSuspicious);
  }
}

class DecodeMatchesMaxProduct : public ::testing::TestWithParam<int> {};

TEST_P(DecodeMatchesMaxProduct, ViterbiEqualsMaxProductBp) {
  // decode_stages must find an assignment with the same joint score as
  // max-product BP on the equivalent chain factor graph.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  std::vector<AlertType> observed;
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < n; ++i) {
    observed.push_back(static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1)));
  }
  const auto graph = fg::build_chain(params(), observed);
  fg::BpOptions options;
  options.max_product = true;
  options.max_iterations = n + 4;
  const auto bp = fg::run_bp(graph, options);

  const auto decoded = fg::decode_stages(params(), observed);
  std::vector<std::size_t> as_assignment;
  for (const auto stage : decoded) as_assignment.push_back(static_cast<std::size_t>(stage));
  EXPECT_NEAR(graph.joint_log_score(as_assignment),
              graph.joint_log_score(bp.map_assignment), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, DecodeMatchesMaxProduct, ::testing::Range(0, 20));

}  // namespace
}  // namespace at
