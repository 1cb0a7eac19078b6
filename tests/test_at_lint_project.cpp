// Tests for the at_lint whole-program phase: cross-TU fact linking
// (call / lock / hot-path graphs), the project rules it powers, the two
// carry-overs the earlier single-file engine provably missed, stale
// inline-suppression accounting, and the v4 dataflow layer
// (interprocedural taint, dangling views, bounded growth).

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "at_lint/lint.hpp"

namespace at::lint {
namespace {

bool has_rule(const std::vector<Violation>& vs, std::string_view rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

std::string read_fixture(const std::string& rel) {
  const std::string path = std::string(AT_SOURCE_ROOT) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------- determinism, cross-TU closure
//
// ROADMAP carry-over #1: the PR-4 engine harvested container declarations
// only from a file and its sibling header, so a loop in consumer.cpp over a
// field declared in types.hpp was invisible. The whole-program phase
// resolves the field through the include closure.

std::vector<SourceFile> cross_tu_pair(std::string_view field_type) {
  std::vector<SourceFile> files;
  files.push_back({"src/cross/types.hpp",
                   "#pragma once\n"
                   "#include <string>\n"
                   "#include " + std::string(field_type == "std::unordered_map"
                                                 ? "<unordered_map>"
                                                 : "<map>") + "\n"
                   "namespace at {\n"
                   "struct Registry {\n"
                   "  std::string dump() const;\n"
                   "  " + std::string(field_type) + "<std::string, int> counts_;\n"
                   "};\n"
                   "}  // namespace at\n"});
  files.push_back({"src/cross/consumer.cpp",
                   "#include \"cross/types.hpp\"\n"
                   "namespace at {\n"
                   "std::string Registry::dump() const {\n"
                   "  std::string out;\n"
                   "  for (const auto& kv : counts_) {\n"
                   "    out += kv.first;\n"
                   "  }\n"
                   "  return out;\n"
                   "}\n"
                   "}  // namespace at\n"});
  return files;
}

TEST(AtLintCrossTuDeterminism, FiresOnFieldDeclaredInAnotherHeader) {
  const auto vs = run_check("determinism", cross_tu_pair("std::unordered_map"));
  ASSERT_TRUE(has_rule(vs, "determinism"));
  const auto& v = vs.front();
  EXPECT_EQ(v.file, "src/cross/consumer.cpp");
  EXPECT_NE(v.message.find("counts_"), std::string::npos);
  EXPECT_NE(v.message.find("src/cross/types.hpp"), std::string::npos);
}

TEST(AtLintCrossTuDeterminism, OrderedFieldInTheSameHeaderIsClean) {
  EXPECT_TRUE(run_check("determinism", cross_tu_pair("std::map")).empty());
}

TEST(AtLintCrossTuDeterminism, InvisibleDeclarationDoesNotFire) {
  // Same loop, but the declaring header is NOT in the consumer's include
  // closure: without a visible unordered declaration the pending loop must
  // stay silent (no guessing across unrelated same-named fields).
  auto files = cross_tu_pair("std::unordered_map");
  files[1].content =
      "namespace at {\n"
      "std::string dump_it() {\n"
      "  std::string out;\n"
      "  for (const auto& kv : counts_) {\n"
      "    out += kv.first;\n"
      "  }\n"
      "  return out;\n"
      "}\n"
      "}  // namespace at\n";
  EXPECT_TRUE(run_check("determinism", files).empty());
}

TEST(AtLintCrossTuDeterminism, VisibleOrderedTwinVetoesTheFinding) {
  // Two headers in the closure declare `counts_`: one unordered, one
  // ordered. The loop could iterate either; any ordered candidate vetoes.
  auto files = cross_tu_pair("std::unordered_map");
  files.push_back({"src/cross/other.hpp",
                   "#pragma once\n"
                   "#include <map>\n"
                   "#include <string>\n"
                   "namespace at {\n"
                   "struct Cache { std::map<std::string, int> counts_; };\n"
                   "}  // namespace at\n"});
  files[1].content = "#include \"cross/types.hpp\"\n"
                     "#include \"cross/other.hpp\"\n" +
                     files[1].content.substr(files[1].content.find("namespace"));
  EXPECT_TRUE(run_check("determinism", files).empty());
}

TEST(AtLintCrossTuDeterminism, OnDiskFixturePair) {
  std::vector<SourceFile> files;
  files.push_back({"src/cross/types.hpp",
                   read_fixture("tests/negative/at_lint/cross_tu_determinism/types.hpp")});
  files.push_back(
      {"src/cross/consumer.cpp",
       read_fixture("tests/negative/at_lint/cross_tu_determinism/consumer.cpp")});
  EXPECT_TRUE(has_rule(run_check("determinism", files), "determinism"));
}

// --------------------------------------------- lock-order, helper summaries
//
// ROADMAP carry-over #2: the PR-4 engine only saw nested LockGuard scopes
// inside one function, so acquiring A then calling a helper that acquires B
// contributed no A->B edge. Call-graph summaries (and AT_ACQUIRES on
// declarations whose bodies at_lint cannot see) close the gap.

TEST(AtLintLockOrderPropagated, HelperBodySummaryCompletesTheCycle) {
  std::vector<SourceFile> files;
  // The helper's body lives in api.hpp's sibling .cpp — the layout the
  // linker's closure pruning supports (a definition in x.cpp is callable
  // wherever x.hpp is visible).
  files.push_back({"src/lk/api.cpp",
                   "#include \"lk/api.hpp\"\n"
                   "namespace at {\n"
                   "void Box::locked_helper() {\n"
                   "  util::LockGuard g(b_mu_);\n"
                   "  ++n_;\n"
                   "}\n"
                   "}  // namespace at\n"});
  files.push_back({"src/lk/api.hpp",
                   "#pragma once\n"
                   "namespace at {\n"
                   "struct Box {\n"
                   "  void locked_helper();\n"
                   "  void path1();\n"
                   "  void path2();\n"
                   "};\n"
                   "}  // namespace at\n"});
  files.push_back({"src/lk/paths.cpp",
                   "#include \"lk/api.hpp\"\n"
                   "namespace at {\n"
                   "void Box::path1() {\n"
                   "  util::LockGuard g(a_mu_);\n"
                   "  locked_helper();\n"
                   "}\n"
                   "void Box::path2() {\n"
                   "  util::LockGuard g(b_mu_);\n"
                   "  util::LockGuard h(a_mu_);\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("lock-order", files);
  ASSERT_TRUE(has_rule(vs, "lock-order"));
  EXPECT_NE(vs.front().message.find("a_mu_"), std::string::npos);
  EXPECT_NE(vs.front().message.find("b_mu_"), std::string::npos);
}

TEST(AtLintLockOrderPropagated, AtAcquiresAnnotationStandsInForTheBody) {
  std::vector<SourceFile> files;
  files.push_back({"src/lk/api.hpp",
                   "#pragma once\n"
                   "namespace at {\n"
                   "struct Box {\n"
                   "  void opaque_helper() AT_ACQUIRES(b_mu_);\n"
                   "  void path1();\n"
                   "  void path2();\n"
                   "};\n"
                   "}  // namespace at\n"});
  files.push_back({"src/lk/paths.cpp",
                   "#include \"lk/api.hpp\"\n"
                   "namespace at {\n"
                   "void Box::path1() {\n"
                   "  util::LockGuard g(a_mu_);\n"
                   "  opaque_helper();\n"
                   "}\n"
                   "void Box::path2() {\n"
                   "  util::LockGuard g(b_mu_);\n"
                   "  util::LockGuard h(a_mu_);\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(has_rule(run_check("lock-order", files), "lock-order"));
}

TEST(AtLintLockOrderPropagated, AmbiguousCalleeContributesNoEdge) {
  // Two project functions named `helper` resolve from the call site: the
  // fanout>1 edge must NOT propagate acquisitions (a wrong edge would
  // forge a deadlock report).
  std::vector<SourceFile> files;
  files.push_back({"src/lk/api.hpp",
                   "#pragma once\n"
                   "namespace at {\n"
                   "struct P { void helper() AT_ACQUIRES(b_mu_); void path1(); };\n"
                   "struct Q { void helper(); };\n"
                   "}  // namespace at\n"});
  files.push_back({"src/lk/paths.cpp",
                   "#include \"lk/api.hpp\"\n"
                   "namespace at {\n"
                   "void Q::helper() {}\n"
                   "void P::path1() {\n"
                   "  util::LockGuard g(a_mu_);\n"
                   "  helper();\n"
                   "}\n"
                   "void cycle_half() {\n"
                   "  util::LockGuard g(b_mu_);\n"
                   "  util::LockGuard h(a_mu_);\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_FALSE(has_rule(run_check("lock-order", files), "lock-order"));
}

TEST(AtLintLockOrderPropagated, OnDiskFixturePair) {
  std::vector<SourceFile> files;
  files.push_back({"src/lk/api.hpp",
                   read_fixture("tests/negative/at_lint/lock_order_propagated/api.hpp")});
  files.push_back({"src/lk/paths.cpp",
                   read_fixture("tests/negative/at_lint/lock_order_propagated/paths.cpp")});
  EXPECT_TRUE(has_rule(run_check("lock-order", files), "lock-order"));
}

// ------------------------------------------------------ blocking-in-hot-path

TEST(AtLintHotPath, AtHotRootReachesBlockingCallee) {
  std::vector<SourceFile> files;
  files.push_back({"src/hp/a.cpp",
                   "#include <cstdio>\n"
                   "namespace at {\n"
                   "void log_line() { std::printf(\"tick\\n\"); }\n"
                   "void drain() AT_HOT {\n"
                   "  log_line();\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("blocking-in-hot-path", files);
  ASSERT_TRUE(has_rule(vs, "blocking-in-hot-path"));
  EXPECT_NE(vs.front().message.find("printf"), std::string::npos);
  EXPECT_NE(vs.front().message.find("drain -> log_line"), std::string::npos);
}

TEST(AtLintHotPath, EngineDrainLoopIsAnImplicitRoot) {
  std::vector<SourceFile> files;
  files.push_back({"src/sim/engine.cpp",
                   "namespace at::sim {\n"
                   "void trace() { std::fprintf(stderr, \"x\");\n}\n"
                   "std::uint64_t Engine::run() {\n"
                   "  trace();\n"
                   "  return 0;\n"
                   "}\n"
                   "}  // namespace at::sim\n"});
  EXPECT_TRUE(has_rule(run_check("blocking-in-hot-path", files),
                       "blocking-in-hot-path"));
}

TEST(AtLintHotPath, InlineSuppressionIsAnEscapeHatch) {
  std::vector<SourceFile> files;
  files.push_back({"src/hp/a.cpp",
                   "#include <cstdio>\n"
                   "namespace at {\n"
                   "void drain() AT_HOT {\n"
                   "  // at_lint: allow(blocking-in-hot-path) — startup banner, once\n"
                   "  std::printf(\"go\\n\");\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("blocking-in-hot-path", files).empty());
}

TEST(AtLintHotPath, ColdFunctionsMayBlock) {
  std::vector<SourceFile> files;
  files.push_back({"src/hp/a.cpp",
                   "#include <cstdio>\n"
                   "namespace at {\n"
                   "void report() { std::printf(\"done\\n\"); }\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("blocking-in-hot-path", files).empty());
}

TEST(AtLintHotPath, OnDiskFixture) {
  const auto src = read_fixture(
      "tests/negative/at_lint/blocking_in_hot_path_violation.cpp");
  std::vector<SourceFile> files;
  files.push_back({"src/fix.cpp", src});
  EXPECT_TRUE(has_rule(run_check("blocking-in-hot-path", files),
                       "blocking-in-hot-path"));
}

// -------------------------------------------------------------- atomic-order

TEST(AtLintAtomicOrder, RelaxedLoadFeedingDerefNeedsAcquire) {
  std::vector<SourceFile> files;
  files.push_back({"src/ao/a.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "namespace at {\n"
                   "class Box {\n"
                   " public:\n"
                   "  int get() const { return *ptr_.load(std::memory_order_relaxed); }\n"
                   " private:\n"
                   "  std::atomic<int*> ptr_{nullptr};\n"
                   "};\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("atomic-order", files);
  ASSERT_TRUE(has_rule(vs, "atomic-order"));
  EXPECT_NE(vs.front().message.find("ptr_"), std::string::npos);
  EXPECT_NE(vs.front().message.find("memory_order_acquire"), std::string::npos);
}

TEST(AtLintAtomicOrder, RelaxedFlagGuardingOtherMemberReads) {
  std::vector<SourceFile> files;
  files.push_back({"src/ao/a.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "namespace at {\n"
                   "class Box {\n"
                   " public:\n"
                   "  int read() const {\n"
                   "    if (ready_.load(std::memory_order_relaxed)) {\n"
                   "      return payload_;\n"
                   "    }\n"
                   "    return 0;\n"
                   "  }\n"
                   " private:\n"
                   "  std::atomic<bool> ready_{false};\n"
                   "  int payload_ = 0;\n"
                   "};\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(has_rule(run_check("atomic-order", files), "atomic-order"));
}

TEST(AtLintAtomicOrder, SameObjectGuardStaysRelaxed) {
  // The Engine::run_until clock-advance idiom: a relaxed load guarding a
  // relaxed store of the SAME atomic is single-writer-safe and must not
  // trip the publication heuristic.
  std::vector<SourceFile> files;
  files.push_back({"src/ao/a.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "namespace at {\n"
                   "class Clock {\n"
                   " public:\n"
                   "  void advance(long until) {\n"
                   "    if (now_.load(std::memory_order_relaxed) < until) {\n"
                   "      now_.store(until, std::memory_order_relaxed);\n"
                   "    }\n"
                   "  }\n"
                   " private:\n"
                   "  std::atomic<long> now_{0};\n"
                   "};\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("atomic-order", files).empty());
}

TEST(AtLintAtomicOrder, DefaultedSeqCstInsideHotFunction) {
  std::vector<SourceFile> files;
  files.push_back({"src/ao/a.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "namespace at {\n"
                   "class Counter {\n"
                   " public:\n"
                   "  void bump() AT_HOT { n_.fetch_add(1); }\n"
                   " private:\n"
                   "  std::atomic<long> n_{0};\n"
                   "};\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("atomic-order", files);
  ASSERT_TRUE(has_rule(vs, "atomic-order"));
  EXPECT_NE(vs.front().message.find("seq_cst"), std::string::npos);
}

TEST(AtLintAtomicOrder, DefaultedSeqCstOffTheHotPathIsFine) {
  std::vector<SourceFile> files;
  files.push_back({"src/ao/a.hpp",
                   "#pragma once\n"
                   "#include <atomic>\n"
                   "namespace at {\n"
                   "class Counter {\n"
                   " public:\n"
                   "  void bump() { n_.fetch_add(1); }\n"
                   " private:\n"
                   "  std::atomic<long> n_{0};\n"
                   "};\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("atomic-order", files).empty());
}

TEST(AtLintAtomicOrder, OnDiskFixture) {
  std::vector<SourceFile> files;
  files.push_back(
      {"src/fix.hpp", read_fixture("tests/negative/at_lint/atomic_order_violation.hpp")});
  EXPECT_TRUE(has_rule(run_check("atomic-order", files), "atomic-order"));
}

// ----------------------------------------------------------- noexcept-escape

TEST(AtLintNoexceptEscape, NoexceptFunctionCallingThrowingHelper) {
  std::vector<SourceFile> files;
  files.push_back({"src/ne/a.cpp",
                   "#include <stdexcept>\n"
                   "namespace at {\n"
                   "void validate(int v) {\n"
                   "  if (v < 0) throw std::invalid_argument(\"v\");\n"
                   "}\n"
                   "void apply(int v) noexcept {\n"
                   "  validate(v);\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("noexcept-escape", files);
  ASSERT_TRUE(has_rule(vs, "noexcept-escape"));
  EXPECT_NE(vs.front().message.find("apply"), std::string::npos);
  EXPECT_NE(vs.front().message.find("validate"), std::string::npos);
}

TEST(AtLintNoexceptEscape, DestructorIsImplicitlyNoexcept) {
  std::vector<SourceFile> files;
  files.push_back({"src/ne/a.cpp",
                   "#include <stdexcept>\n"
                   "namespace at {\n"
                   "struct Box {\n"
                   "  ~Box() { flush(); }\n"
                   "  void flush() { throw std::runtime_error(\"flush\"); }\n"
                   "};\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("noexcept-escape", files);
  ASSERT_TRUE(has_rule(vs, "noexcept-escape"));
  EXPECT_NE(vs.front().message.find("destructor"), std::string::npos);
}

TEST(AtLintNoexceptEscape, ThreadPoolTaskMayNotThrow) {
  std::vector<SourceFile> files;
  files.push_back({"src/ne/a.cpp",
                   "#include <stdexcept>\n"
                   "namespace at {\n"
                   "void enqueue(util::ThreadPool& pool) {\n"
                   "  pool.submit([] {\n"
                   "    throw std::runtime_error(\"task\");\n"
                   "  });\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("noexcept-escape", files);
  ASSERT_TRUE(has_rule(vs, "noexcept-escape"));
  EXPECT_NE(vs.front().message.find("ThreadPool task"), std::string::npos);
}

TEST(AtLintNoexceptEscape, TryBlockAtTheBoundaryAbsorbsTheThrow) {
  std::vector<SourceFile> files;
  files.push_back({"src/ne/a.cpp",
                   "#include <stdexcept>\n"
                   "namespace at {\n"
                   "void validate(int v) {\n"
                   "  if (v < 0) throw std::invalid_argument(\"v\");\n"
                   "}\n"
                   "void apply(int v) noexcept {\n"
                   "  try {\n"
                   "    validate(v);\n"
                   "  } catch (const std::exception&) {\n"
                   "  }\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("noexcept-escape", files).empty());
}

TEST(AtLintNoexceptEscape, NoexceptFalseIsNotARoot) {
  std::vector<SourceFile> files;
  files.push_back({"src/ne/a.cpp",
                   "#include <stdexcept>\n"
                   "namespace at {\n"
                   "void apply(int v) noexcept(false) {\n"
                   "  if (v < 0) throw std::invalid_argument(\"v\");\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("noexcept-escape", files).empty());
}

TEST(AtLintNoexceptEscape, OnDiskFixture) {
  std::vector<SourceFile> files;
  files.push_back(
      {"src/fix.cpp", read_fixture("tests/negative/at_lint/noexcept_escape_violation.cpp")});
  EXPECT_TRUE(has_rule(run_check("noexcept-escape", files), "noexcept-escape"));
}

// ------------------------------------------------- stale inline suppressions

TEST(AtLintStaleSuppression, UnmatchedInlineAllowIsReported) {
  std::vector<SourceFile> files;
  files.push_back({"src/st/a.cpp",
                   "// at_lint: allow(banned-call) — nothing here trips it\n"
                   "int v = 0;\n"});
  const auto result = run(files, RunOptions{});
  ASSERT_EQ(result.stale_suppressions.size(), 1u);
  EXPECT_EQ(result.stale_suppressions[0].file, "src/st/a.cpp");
  EXPECT_EQ(result.stale_suppressions[0].rule, "banned-call");
}

TEST(AtLintStaleSuppression, ProjectPhaseHitIsNotStale) {
  std::vector<SourceFile> files;
  files.push_back({"src/st/a.cpp",
                   "#include <cstdio>\n"
                   "namespace at {\n"
                   "void drain() AT_HOT {\n"
                   "  // at_lint: allow(blocking-in-hot-path) — one-shot banner\n"
                   "  std::printf(\"go\\n\");\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto result = run(files, RunOptions{});
  EXPECT_FALSE(has_rule(result.violations, "blocking-in-hot-path"));
  EXPECT_TRUE(result.stale_suppressions.empty());
}

TEST(AtLintStaleSuppression, PerFileHitIsNotStale) {
  std::vector<SourceFile> files;
  files.push_back({"src/st/a.cpp",
                   "int v = rand();  // at_lint: allow(banned-call) — seed demo\n"});
  const auto result = run(files, RunOptions{});
  EXPECT_TRUE(result.violations.empty());
  EXPECT_TRUE(result.stale_suppressions.empty());
}

TEST(AtLintStaleSuppression, DocMentionsOfTheSyntaxAreNotSuppressions) {
  std::vector<SourceFile> files;
  files.push_back({"src/st/a.cpp",
                   "// Escape hatch: justify with // at_lint: allow(banned-call).\n"
                   "int v = 0;\n"});
  const auto result = run(files, RunOptions{});
  EXPECT_TRUE(result.stale_suppressions.empty());
}

// --------------------------------------------- v4 dataflow: taint-to-sink
//
// Taint enters at AT_UNTRUSTED entries, rides FlowEdge summaries across
// the call graph (fanout == 1 resolution), and fires when it reaches an
// allocation-size / index / path / format sink without a bounds check or
// an AT_SANITIZES hop.

std::vector<SourceFile> taint_two_hop_files(std::string_view consume_body) {
  std::vector<SourceFile> files;
  files.push_back({"src/taint/reader.hpp",
                   "#pragma once\n"
                   "#include <string>\n"
                   "namespace at {\n"
                   "std::string read_payload(const std::string& wire) AT_UNTRUSTED;\n"
                   "}  // namespace at\n"});
  files.push_back({"src/taint/reader.cpp",
                   "#include \"taint/reader.hpp\"\n"
                   "namespace at {\n"
                   "std::string read_payload(const std::string& wire) { return wire; }\n"
                   "}  // namespace at\n"});
  files.push_back({"src/taint/pipeline.cpp",
                   "#include \"taint/reader.hpp\"\n"
                   "#include <vector>\n"
                   "namespace at {\n"
                   "void consume(const std::string& buf, std::vector<int>& out) {\n" +
                       std::string(consume_body) +
                       "}\n"
                       "void route(const std::string& buf, std::vector<int>& out) {\n"
                       "  consume(buf, out);\n"
                       "}\n"
                       "void drive(std::vector<int>& out) {\n"
                       "  const std::string payload = read_payload(\"x\");\n"
                       "  route(payload, out);\n"
                       "}\n"
                       "}  // namespace at\n"});
  return files;
}

TEST(AtLintTaint, PropagatesThroughTwoCallHopsToAnAllocSizeSink) {
  const auto vs =
      run_check("taint-to-sink", taint_two_hop_files("  out.reserve(buf.size());\n"));
  ASSERT_TRUE(has_rule(vs, "taint-to-sink"));
  EXPECT_EQ(vs.front().file, "src/taint/pipeline.cpp");
  // The diagnostic names the full interprocedural chain to the sink.
  EXPECT_NE(vs.front().message.find("drive -> route -> consume"), std::string::npos);
}

TEST(AtLintTaint, BoundsCheckBeforeTheSinkSilencesIt) {
  const auto vs = run_check(
      "taint-to-sink",
      taint_two_hop_files("  if (buf.size() > 4096) return;\n"
                          "  out.reserve(buf.size());\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(AtLintTaint, SanitizingHopClearsTheTaint) {
  std::vector<SourceFile> files;
  files.push_back({"src/taint/a.cpp",
                   "#include <string>\n"
                   "#include <vector>\n"
                   "namespace at {\n"
                   "std::string read_line() AT_UNTRUSTED;\n"
                   "std::size_t parse_count(const std::string& text) AT_SANITIZES;\n"
                   "void grow(std::vector<int>& out) {\n"
                   "  const std::string raw = read_line();\n"
                   "  const std::size_t n = parse_count(raw);\n"
                   "  out.reserve(n);\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("taint-to-sink", files).empty());
}

TEST(AtLintTaint, HeaderAnnotationTaintsACallerInAnotherTu) {
  // api.hpp + its sibling api.cpp, and a consumer in a third TU. The same
  // tree is linted before and after AT_UNTRUSTED lands on the header
  // prototype: only the second run flags the consumer's sink.
  std::vector<SourceFile> files;
  files.push_back({"src/api/api.hpp",
                   "#pragma once\n"
                   "#include <string>\n"
                   "namespace at {\n"
                   "std::string fetch(const std::string& wire);\n"
                   "}  // namespace at\n"});
  files.push_back({"src/api/api.cpp",
                   "#include \"api/api.hpp\"\n"
                   "namespace at {\n"
                   "std::string fetch(const std::string& wire) { return wire; }\n"
                   "}  // namespace at\n"});
  files.push_back({"src/api/consumer.cpp",
                   "#include \"api/api.hpp\"\n"
                   "#include <vector>\n"
                   "namespace at {\n"
                   "void use(std::vector<int>& out) {\n"
                   "  const std::string body = fetch(\"x\");\n"
                   "  out.reserve(body.size());\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_FALSE(has_rule(run(files, RunOptions{}).violations, "taint-to-sink"));

  files[0].content =
      "#pragma once\n"
      "#include <string>\n"
      "namespace at {\n"
      "std::string fetch(const std::string& wire) AT_UNTRUSTED;\n"
      "}  // namespace at\n";
  const auto edited = run(files, RunOptions{});
  ASSERT_TRUE(has_rule(edited.violations, "taint-to-sink"));
  EXPECT_EQ(edited.violations.front().file, "src/api/consumer.cpp");
}

TEST(AtLintTaint, UntaintedFlowsNeverFire) {
  std::vector<SourceFile> files;
  files.push_back({"src/taint/a.cpp",
                   "#include <string>\n"
                   "#include <vector>\n"
                   "namespace at {\n"
                   "void grow(std::vector<int>& out, const std::string& trusted) {\n"
                   "  out.reserve(trusted.size());\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("taint-to-sink", files).empty());
}

// --------------------------------------------- v4 dataflow: dangling-view

TEST(AtLintDanglingView, TernaryMixingStringAndLiteralDangles) {
  // The PR-4 UB bug, generalized: the literal arm materializes a
  // std::string temporary and the view outlives it.
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <string>\n"
                   "#include <string_view>\n"
                   "namespace at {\n"
                   "std::string_view pick(bool flag) {\n"
                   "  std::string name = \"long enough to defeat sso\";\n"
                   "  std::string_view v = flag ? name : \"fallback\";\n"
                   "  return v;\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("dangling-view", files);
  ASSERT_TRUE(has_rule(vs, "dangling-view"));
  EXPECT_EQ(vs.front().line, 6u);
  EXPECT_NE(vs.front().message.find("ternary"), std::string::npos);
}

TEST(AtLintDanglingView, BothArmsAlreadyViewsAreClean) {
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <string_view>\n"
                   "namespace at {\n"
                   "std::string_view pick(bool flag, std::string_view name) {\n"
                   "  std::string_view v = flag ? name : std::string_view(\"fb\");\n"
                   "  return v;\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("dangling-view", files).empty());
}

TEST(AtLintDanglingView, SubstrTemporaryDangles) {
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <string>\n"
                   "#include <string_view>\n"
                   "namespace at {\n"
                   "void inspect(const char* raw) {\n"
                   "  std::string line = raw;\n"
                   "  std::string_view tail = line.substr(4);\n"
                   "  (void)tail;\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(has_rule(run_check("dangling-view", files), "dangling-view"));
}

TEST(AtLintDanglingView, ReturnViewOfLocalString) {
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <string>\n"
                   "#include <string_view>\n"
                   "namespace at {\n"
                   "std::string_view label(int id) {\n"
                   "  std::string text = std::to_string(id);\n"
                   "  return text;\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("dangling-view", files);
  ASSERT_TRUE(has_rule(vs, "dangling-view"));
  EXPECT_NE(vs.front().message.find("dies with the frame"), std::string::npos);
}

TEST(AtLintDanglingView, BorrowInvalidatedByPushBack) {
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <vector>\n"
                   "namespace at {\n"
                   "int sum(std::vector<int>& items) {\n"
                   "  auto& first = items.front();\n"
                   "  items.push_back(7);\n"
                   "  return first;\n"
                   "}\n"
                   "}  // namespace at\n"});
  const auto vs = run_check("dangling-view", files);
  ASSERT_TRUE(has_rule(vs, "dangling-view"));
  EXPECT_NE(vs.front().message.find("push_back"), std::string::npos);
}

TEST(AtLintDanglingView, EraseLoopReassignmentIsClean) {
  // `it = items.erase(it)` re-establishes the borrow every iteration —
  // the canonical erase loop must stay silent.
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <vector>\n"
                   "namespace at {\n"
                   "void sweep(std::vector<int>& items) {\n"
                   "  auto it = items.begin();\n"
                   "  while (it != items.end()) {\n"
                   "    it = items.erase(it);\n"
                   "  }\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("dangling-view", files).empty());
}

TEST(AtLintDanglingView, UseBeforeMutationIsClean) {
  std::vector<SourceFile> files;
  files.push_back({"src/view/a.cpp",
                   "#include <vector>\n"
                   "namespace at {\n"
                   "int stage(std::vector<int>& items) {\n"
                   "  auto& first = items.front();\n"
                   "  int x = first + 1;\n"
                   "  items.push_back(x);\n"
                   "  return x;\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("dangling-view", files).empty());
}

// ------------------------------------------ v4 dataflow: unbounded-growth

std::vector<SourceFile> growth_files() {
  std::vector<SourceFile> files;
  files.push_back({"src/growth/tracker.hpp",
                   "#pragma once\n"
                   "#include <string>\n"
                   "#include <unordered_map>\n"
                   "namespace at {\n"
                   "class Tracker {\n"
                   " public:\n"
                   "  void ingest(const std::string& key) AT_UNTRUSTED;\n"
                   " private:\n"
                   "  std::unordered_map<std::string, int> seen_;\n"
                   "};\n"
                   "}  // namespace at\n"});
  files.push_back({"src/growth/tracker.cpp",
                   "#include \"growth/tracker.hpp\"\n"
                   "namespace at {\n"
                   "void Tracker::ingest(const std::string& key) {\n"
                   "  seen_[key] += 1;\n"
                   "}\n"
                   "}  // namespace at\n"});
  return files;
}

TEST(AtLintGrowth, TaintedMapWithNoEvictionFires) {
  const auto vs = run_check("unbounded-growth", growth_files());
  ASSERT_TRUE(has_rule(vs, "unbounded-growth"));
  EXPECT_NE(vs.front().message.find("seen_"), std::string::npos);
  EXPECT_NE(vs.front().message.find("AT_BOUNDED"), std::string::npos);
}

TEST(AtLintGrowth, EvictionInAnotherTuSilencesTheFinding) {
  auto files = growth_files();
  files.push_back({"src/growth/gc.cpp",
                   "#include \"growth/tracker.hpp\"\n"
                   "namespace at {\n"
                   "void collect(Tracker& t) { (void)t; }\n"
                   "void Tracker_gc(std::unordered_map<std::string, int>& seen_) {\n"
                   "  seen_.erase(\"old\");\n"
                   "}\n"
                   "}  // namespace at\n"});
  EXPECT_TRUE(run_check("unbounded-growth", files).empty());
}

TEST(AtLintGrowth, AtBoundedAnnotationSilencesTheFinding) {
  auto files = growth_files();
  files[0].content =
      "#pragma once\n"
      "#include <string>\n"
      "#include <unordered_map>\n"
      "namespace at {\n"
      "class Tracker {\n"
      " public:\n"
      "  void ingest(const std::string& key) AT_UNTRUSTED;\n"
      " private:\n"
      "  // Bounded: capped upstream by the admission filter.\n"
      "  std::unordered_map<std::string, int> seen_ AT_BOUNDED;\n"
      "};\n"
      "}  // namespace at\n";
  EXPECT_TRUE(run_check("unbounded-growth", files).empty());
}

TEST(AtLintGrowth, UntaintedGrowthIsClean) {
  auto files = growth_files();
  // Same shape, no AT_UNTRUSTED anywhere: growth without taint is fine.
  files[0].content =
      "#pragma once\n"
      "#include <string>\n"
      "#include <unordered_map>\n"
      "namespace at {\n"
      "class Tracker {\n"
      " public:\n"
      "  void ingest(const std::string& key);\n"
      " private:\n"
      "  std::unordered_map<std::string, int> seen_;\n"
      "};\n"
      "}  // namespace at\n";
  EXPECT_TRUE(run_check("unbounded-growth", files).empty());
}

// -------------------------------------------------------------------- stats

TEST(AtLintStats, PhaseTimingsPartitionTheAggregates) {
  std::vector<SourceFile> files;
  for (int i = 0; i < 8; ++i) {
    files.push_back({"src/s" + std::to_string(i) + ".cpp", "int x" + std::to_string(i) + ";\n"});
  }
  const auto result = run(files, RunOptions{});
  const auto& s = result.stats;
  EXPECT_GE(s.lex_ms, 0.0);
  EXPECT_GE(s.extract_ms, 0.0);
  EXPECT_GE(s.link_ms, 0.0);
  EXPECT_GE(s.check_ms, 0.0);
  EXPECT_NEAR(s.analyze_ms, s.lex_ms + s.extract_ms, 1e-6);
  EXPECT_NEAR(s.project_ms, s.link_ms + s.check_ms, 1e-6);
}

}  // namespace
}  // namespace at::lint
