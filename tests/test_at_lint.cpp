// Unit tests for the at_lint v2 rule engine (tools/at_lint). Each rule gets
// a positive case (a violation it must catch) and a negative case (idiomatic
// code it must NOT flag), exercised over in-memory SourceFile sets so the
// tests are hermetic. The new deep checks additionally run against on-disk
// fixtures under tests/negative/at_lint/ (read via AT_SOURCE_ROOT), which
// double as documentation of exactly what each rule catches.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "at_lint/lint.hpp"
#include "at_lint/sarif.hpp"

namespace at::lint {
namespace {

std::vector<SourceFile> one(std::string path, std::string content) {
  std::vector<SourceFile> files;
  files.push_back({std::move(path), std::move(content)});
  return files;
}

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

// -------------------------------------------------------------- banned-call

TEST(AtLintBanned, FlagsRandInSrc) {
  const auto vs = check_banned_calls(one("src/x.cpp", "int v = rand();\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "banned-call");
  EXPECT_EQ(vs[0].line, 1u);
  EXPECT_EQ(vs[0].column, 9u);  // the `rand` token, 1-based
}

TEST(AtLintBanned, ColumnTracksTheTokenAcrossLines) {
  const auto vs =
      check_banned_calls(one("src/x.cpp", "int a;\nint b;\n  int v = rand();\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 3u);
  EXPECT_EQ(vs[0].column, 11u);
}

TEST(AtLintBanned, IgnoresRandOutsideSrc) {
  EXPECT_TRUE(check_banned_calls(one("bench/x.cpp", "int v = rand();\n")).empty());
}

TEST(AtLintBanned, IgnoresIdentifiersContainingRand) {
  const auto vs = check_banned_calls(
      one("src/x.cpp", "int my_rand(); int v = my_rand(); int strand(int);\n"));
  EXPECT_TRUE(vs.empty());
}

TEST(AtLintBanned, FlagsRawExpOnlyInFg) {
  EXPECT_FALSE(check_banned_calls(one("src/fg/x.cpp", "double d = exp(z);\n")).empty());
  EXPECT_TRUE(check_banned_calls(one("src/net/x.cpp", "double d = exp(z);\n")).empty());
}

TEST(AtLintBanned, FlagsStoiOutsideTry) {
  const auto vs = check_banned_calls(one("src/x.cpp", "int v = std::stoi(s);\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_NE(vs[0].message.find("std::stoi"), std::string::npos);
}

TEST(AtLintBanned, AllowsStoiInsideTry) {
  const std::string src =
      "int f(const std::string& s) {\n"
      "  try {\n"
      "    return std::stoi(s);\n"
      "  } catch (...) {\n"
      "    return 0;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(check_banned_calls(one("src/x.cpp", src)).empty());
}

TEST(AtLintBanned, TryBlockEndsAtItsBrace) {
  const std::string src =
      "int f(const std::string& s) {\n"
      "  try { g(); } catch (...) {}\n"
      "  return std::stoi(s);\n"  // outside the try again
      "}\n";
  const auto vs = check_banned_calls(one("src/x.cpp", src));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 3u);
}

TEST(AtLintBanned, IgnoresCommentedCalls) {
  EXPECT_TRUE(check_banned_calls(one("src/x.cpp", "// rand() is banned\n")).empty());
}

TEST(AtLintBanned, IgnoresCallsInsideStringLiterals) {
  // v1's line scanner needed strip_code for this; the token engine gets it
  // for free — a string literal is one token, never an identifier.
  const auto vs = check_banned_calls(
      one("src/x.cpp", "log(\"rand() considered harmful\");\n"));
  EXPECT_TRUE(vs.empty());
}

// -------------------------------------------------------------- pragma-once

TEST(AtLintPragma, FlagsHeaderWithoutPragmaOnce) {
  const auto vs = check_pragma_once(one("src/x.hpp", "#include <vector>\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "pragma-once");
}

TEST(AtLintPragma, AcceptsPragmaOnceAfterComment) {
  EXPECT_TRUE(check_pragma_once(
                  one("src/x.hpp", "// banner\n\n#pragma once\n#include <vector>\n"))
                  .empty());
}

TEST(AtLintPragma, IgnoresCppFiles) {
  EXPECT_TRUE(check_pragma_once(one("src/x.cpp", "int x;\n")).empty());
}

// ------------------------------------------------------------ include-cycle

TEST(AtLintCycle, FlagsTwoFileCycle) {
  std::vector<SourceFile> files;
  files.push_back({"src/a.hpp", "#pragma once\n#include \"b.hpp\"\n"});
  files.push_back({"src/b.hpp", "#pragma once\n#include \"a.hpp\"\n"});
  const auto vs = check_include_cycles(files);
  ASSERT_FALSE(vs.empty());
  EXPECT_EQ(vs[0].rule, "include-cycle");
  EXPECT_NE(vs[0].message.find("a.hpp"), std::string::npos);
  EXPECT_NE(vs[0].message.find("b.hpp"), std::string::npos);
}

TEST(AtLintCycle, AcceptsDag) {
  std::vector<SourceFile> files;
  files.push_back({"src/a.hpp", "#pragma once\n#include \"b.hpp\"\n#include \"c.hpp\"\n"});
  files.push_back({"src/b.hpp", "#pragma once\n#include \"c.hpp\"\n"});
  files.push_back({"src/c.hpp", "#pragma once\n"});
  EXPECT_TRUE(check_include_cycles(files).empty());
}

TEST(AtLintCycle, IgnoresAngleIncludesAndUnknownFiles) {
  std::vector<SourceFile> files;
  files.push_back({"src/a.hpp",
                   "#pragma once\n#include <vector>\n#include \"not_scanned.hpp\"\n"});
  EXPECT_TRUE(check_include_cycles(files).empty());
}

// ----------------------------------------------------------- raw-new-delete

TEST(AtLintNewDelete, FlagsNakedNewInSrc) {
  const auto vs = check_raw_new_delete(one("src/x.cpp", "auto* p = new int(3);\n"));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "raw-new-delete");
}

TEST(AtLintNewDelete, FlagsNakedDelete) {
  EXPECT_FALSE(check_raw_new_delete(one("src/x.cpp", "delete ptr;\n")).empty());
}

TEST(AtLintNewDelete, AllowsUtilAndNonSrc) {
  EXPECT_TRUE(check_raw_new_delete(one("src/util/x.cpp", "auto* p = new int;\n")).empty());
  EXPECT_TRUE(check_raw_new_delete(one("tests/x.cpp", "auto* p = new int;\n")).empty());
}

TEST(AtLintNewDelete, AllowsDeletedFunctionsAndOperatorNew) {
  const std::string src =
      "struct S {\n"
      "  S(const S&) = delete;\n"
      "  void* operator new(std::size_t);\n"
      "  void operator delete(void*);\n"
      "};\n";
  EXPECT_TRUE(check_raw_new_delete(one("src/x.hpp", src)).empty());
}

TEST(AtLintNewDelete, AllowsPlacementNewAndIncludeNew) {
  // v1 needed four allowlist entries for src/sim/callback_slot.hpp; the
  // token engine skips placement new and preprocessor lines natively.
  const std::string src =
      "#include <new>\n"
      "void build(void* dst) { ::new (dst) int(7); }\n";
  EXPECT_TRUE(check_raw_new_delete(one("src/x.hpp", src)).empty());
}

TEST(AtLintNewDelete, CommentedAndQuotedNewAreIgnored) {
  const std::string src =
      "// new is banned here\n"
      "const char* s = \"do not use new\";\n";
  EXPECT_TRUE(check_raw_new_delete(one("src/x.cpp", src)).empty());
}

// --------------------------------------------------------------- guarded-by

TEST(AtLintGuarded, FlagsUnannotatedWriteUnderLock) {
  const std::string src =
      "class C {\n"
      " public:\n"
      "  void add() {\n"
      "    util::LockGuard lock(mu_);\n"
      "    count_ += 1;\n"
      "  }\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  long count_ = 0;\n"  // written under lock, no AT_GUARDED_BY
      "};\n";
  const auto vs = check_guarded_by(one("src/x.hpp", src));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "guarded-by");
  EXPECT_NE(vs[0].message.find("count_"), std::string::npos);
}

TEST(AtLintGuarded, AcceptsAnnotatedField) {
  const std::string src =
      "class C {\n"
      " public:\n"
      "  void add() {\n"
      "    util::LockGuard lock(mu_);\n"
      "    count_ += 1;\n"
      "  }\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  long count_ AT_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(check_guarded_by(one("src/x.hpp", src)).empty());
}

TEST(AtLintGuarded, AcceptsNotGuardedOptOut) {
  const std::string src =
      "class C {\n"
      "  void poke() {\n"
      "    util::LockGuard lock(mu_);\n"
      "    scratch_ = 1;\n"
      "  }\n"
      "  util::Mutex mu_;\n"
      "  int scratch_ AT_NOT_GUARDED = 0;\n"
      "};\n";
  EXPECT_TRUE(check_guarded_by(one("src/x.hpp", src)).empty());
}

TEST(AtLintGuarded, FindsDeclarationInSiblingHeader) {
  std::vector<SourceFile> files;
  files.push_back({"src/c.hpp",
                   "#pragma once\nclass C {\n  util::Mutex mu_;\n"
                   "  long count_ AT_GUARDED_BY(mu_) = 0;\n};\n"});
  files.push_back({"src/c.cpp",
                   "#include \"c.hpp\"\nvoid C::add() {\n"
                   "  util::LockGuard lock(mu_);\n  count_ += 1;\n}\n"});
  EXPECT_TRUE(check_guarded_by(files).empty());
}

TEST(AtLintGuarded, IgnoresWritesOutsideLockScope) {
  const std::string src =
      "class C {\n"
      "  void init() { count_ = 0; }\n"  // no lock held: clang's job, not ours
      "  long count_ = 0;\n"
      "};\n";
  EXPECT_TRUE(check_guarded_by(one("src/x.hpp", src)).empty());
}

TEST(AtLintGuarded, IgnoresLocalsWithoutTrailingUnderscore) {
  const std::string src =
      "class C {\n"
      "  void add() {\n"
      "    util::LockGuard lock(mu_);\n"
      "    int local = 0;\n"
      "    local += 1;\n"
      "  }\n"
      "  util::Mutex mu_;\n"
      "};\n";
  EXPECT_TRUE(check_guarded_by(one("src/x.hpp", src)).empty());
}

// -------------------------------------------------------------- determinism

TEST(AtLintDeterminism, FlagsUnorderedIterationIntoPushBack) {
  const std::string src =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m_;\n"
      "void f(std::vector<int>& out) {\n"
      "  for (const auto& [k, v] : m_) {\n"
      "    out.push_back(v);\n"
      "  }\n"
      "}\n";
  const auto vs = run_check("determinism", one("src/x.cpp", src));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 5u);
  EXPECT_NE(vs[0].message.find("m_"), std::string::npos);
}

TEST(AtLintDeterminism, PostLoopSortIsAnEscapeHatch) {
  const std::string src =
      "std::unordered_map<int, int> m_;\n"
      "void f(std::vector<int>& out) {\n"
      "  for (const auto& [k, v] : m_) {\n"
      "    out.push_back(v);\n"
      "  }\n"
      "  std::sort(out.begin(), out.end());\n"
      "}\n";
  EXPECT_TRUE(run_check("determinism", one("src/x.cpp", src)).empty());
}

TEST(AtLintDeterminism, OrderedSinkIsAnEscapeHatch) {
  const std::string src =
      "std::unordered_map<int, int> m_;\n"
      "void f() {\n"
      "  std::set<int> out;\n"
      "  for (const auto& [k, v] : m_) {\n"
      "    out.insert(v);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(run_check("determinism", one("src/x.cpp", src)).empty());
}

TEST(AtLintDeterminism, FlagsStreamAndFloatAccumulationSinks) {
  const std::string src =
      "std::unordered_set<std::string> names_;\n"
      "double sum_up(std::ostream& os) {\n"
      "  double total = 0.0;\n"
      "  for (const auto& n : names_) {\n"
      "    os << n;\n"
      "    total += 1.5;\n"
      "  }\n"
      "  return total;\n"
      "}\n";
  const auto vs = run_check("determinism", one("src/x.cpp", src));
  EXPECT_EQ(vs.size(), 2u);
}

TEST(AtLintDeterminism, VectorIterationIsFine) {
  const std::string src =
      "std::vector<int> v_;\n"
      "void f(std::vector<int>& out) {\n"
      "  for (int x : v_) out.push_back(x);\n"
      "}\n";
  EXPECT_TRUE(run_check("determinism", one("src/x.cpp", src)).empty());
}

TEST(AtLintDeterminism, FlagsWallClockAndRandomDevice) {
  const std::string src =
      "auto seed = std::random_device{}();\n"
      "auto now = std::chrono::system_clock::now();\n"
      "auto t = std::time(nullptr);\n";
  const auto vs = run_check("determinism", one("src/x.cpp", src));
  EXPECT_EQ(vs.size(), 3u);
}

TEST(AtLintDeterminism, BlessedWrappersAreExempt) {
  const std::string src = "auto seed = std::random_device{}();\n";
  EXPECT_TRUE(run_check("determinism", one("src/util/rng.cpp", src)).empty());
  EXPECT_TRUE(run_check("determinism", one("tests/x.cpp", src)).empty());
}

TEST(AtLintDeterminism, UsingAliasOfUnorderedMapIsTracked) {
  const std::string src =
      "using Index = std::unordered_map<int, int>;\n"
      "Index idx_;\n"
      "void f(std::vector<int>& out) {\n"
      "  for (const auto& [k, v] : idx_) out.push_back(v);\n"
      "}\n";
  EXPECT_FALSE(run_check("determinism", one("src/x.cpp", src)).empty());
}

TEST(AtLintDeterminism, DiskFixtureTrips) {
  const auto vs = run_check(
      "determinism",
      one("src/fix.cpp", read_fixture("tests/negative/at_lint/determinism_violation.cpp")));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 12u);
}

// --------------------------------------------------------------- lock-order

TEST(AtLintLockOrder, FlagsAbBaCycleAcrossFunctions) {
  const auto vs = run_check(
      "lock-order",
      one("src/fix.cpp", read_fixture("tests/negative/at_lint/lock_order_violation.cpp")));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, "lock-order");
  EXPECT_NE(vs[0].message.find("a_mu_"), std::string::npos);
  EXPECT_NE(vs[0].message.find("b_mu_"), std::string::npos);
}

TEST(AtLintLockOrder, ConsistentOrderIsFine) {
  const std::string src =
      "void f() {\n"
      "  util::LockGuard la(a_mu_);\n"
      "  util::LockGuard lb(b_mu_);\n"
      "}\n"
      "void g() {\n"
      "  util::LockGuard la(a_mu_);\n"
      "  util::LockGuard lb(b_mu_);\n"
      "}\n";
  EXPECT_TRUE(run_check("lock-order", one("src/x.cpp", src)).empty());
}

TEST(AtLintLockOrder, CycleAcrossFilesIsFound) {
  std::vector<SourceFile> files;
  files.push_back({"src/a.cpp",
                   "void f() {\n  util::LockGuard la(a_mu_);\n"
                   "  util::LockGuard lb(b_mu_);\n}\n"});
  files.push_back({"src/b.cpp",
                   "void g() {\n  util::LockGuard lb(b_mu_);\n"
                   "  util::LockGuard la(a_mu_);\n}\n"});
  EXPECT_FALSE(run_check("lock-order", files).empty());
}

TEST(AtLintLockOrder, LambdaBodyIsABarrier) {
  // The lambda runs later, on another thread — holding out_mu_ while
  // *constructing* the lambda is not holding it while the body runs.
  const std::string src =
      "void f() {\n"
      "  util::LockGuard lo(out_mu_);\n"
      "  enqueue([this] {\n"
      "    util::LockGuard li(in_mu_);\n"
      "  });\n"
      "}\n"
      "void g() {\n"
      "  util::LockGuard li(in_mu_);\n"
      "  util::LockGuard lo(out_mu_);\n"
      "}\n";
  EXPECT_TRUE(run_check("lock-order", one("src/x.cpp", src)).empty());
}

TEST(AtLintLockOrder, AcquiredBeforeHintFeedsTheGraph) {
  const std::string src =
      "class C {\n"
      "  util::Mutex a_mu_ AT_ACQUIRED_BEFORE(b_mu_);\n"
      "  util::Mutex b_mu_ AT_ACQUIRED_BEFORE(a_mu_);\n"  // contradictory
      "};\n";
  const auto vs = run_check("lock-order", one("src/x.hpp", src));
  ASSERT_FALSE(vs.empty());
  EXPECT_NE(vs[0].message.find("a_mu_"), std::string::npos);
}

TEST(AtLintLockOrder, AcquiredAfterHintReversesTheEdge) {
  const std::string src =
      "class C {\n"
      "  util::Mutex a_mu_ AT_ACQUIRED_AFTER(b_mu_);\n"
      "};\n"
      "void f() {\n"
      "  util::LockGuard la(a_mu_);\n"
      "  util::LockGuard lb(b_mu_);\n"  // contradicts the hint: b before a
      "}\n";
  EXPECT_FALSE(run_check("lock-order", one("src/x.hpp", src)).empty());
}

// ----------------------------------------------------------- header-hygiene

std::vector<SourceFile> hygiene_fixture() {
  std::vector<SourceFile> files;
  for (const char* name : {"deep.hpp", "middle.hpp", "outer.hpp", "user.cpp"}) {
    files.push_back({std::string("src/fix/") + name,
                     read_fixture(std::string("tests/negative/at_lint/header_hygiene/") +
                                  name)});
  }
  return files;
}

TEST(AtLintHygiene, FlagsThreeHopChainOnly) {
  const auto vs = run_check("header-hygiene", hygiene_fixture());
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/fix/user.cpp");
  EXPECT_NE(vs[0].message.find("DeepType"), std::string::npos);
  EXPECT_NE(vs[0].message.find("fix/deep.hpp"), std::string::npos);
  // MiddleType (2 hops, accepted re-export idiom) must NOT be flagged.
  for (const auto& v : vs) {
    EXPECT_EQ(v.message.find("MiddleType"), std::string::npos);
  }
}

TEST(AtLintHygiene, DirectIncludeSilencesIt) {
  auto files = hygiene_fixture();
  for (auto& f : files) {
    if (f.path == "src/fix/user.cpp") {
      f.content = "#include \"fix/deep.hpp\"\n" + f.content;
    }
  }
  EXPECT_TRUE(run_check("header-hygiene", files).empty());
}

TEST(AtLintHygiene, PairedHeaderIncludesCountAsOwn) {
  // user.cpp reaches DeepType through its own header at depth 2 (sibling's
  // direct include): the IWYU paired-header convention accepts that.
  std::vector<SourceFile> files;
  files.push_back({"src/fix/deep.hpp", read_fixture("tests/negative/at_lint/header_hygiene/deep.hpp")});
  files.push_back({"src/fix/mine.hpp", "#pragma once\n#include \"fix/deep.hpp\"\n"});
  files.push_back({"src/fix/mine.cpp",
                   "#include \"fix/mine.hpp\"\nint f() { DeepType d; return d.value; }\n"});
  EXPECT_TRUE(run_check("header-hygiene", files).empty());
}

// ------------------------------------------------------------ uninit-member

TEST(AtLintUninit, FlagsFieldsTheCtorLeavesUnset) {
  const auto vs = run_check(
      "uninit-member",
      one("src/fix.cpp", read_fixture("tests/negative/at_lint/uninit_member_violation.cpp")));
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_NE(vs[0].message.find("count_"), std::string::npos);
  EXPECT_NE(vs[1].message.find("next_"), std::string::npos);
}

TEST(AtLintUninit, InitListAndDefaultInitializersSatisfyIt) {
  const std::string src =
      "struct S {\n"
      "  S() : a_(0) {}\n"
      "  int a_;\n"
      "  int b_ = 0;\n"
      "  int c_{};\n"
      "};\n";
  EXPECT_TRUE(run_check("uninit-member", one("src/x.hpp", src)).empty());
}

TEST(AtLintUninit, BodyAssignmentCounts) {
  const std::string src =
      "struct S {\n"
      "  S() { a_ = 1; }\n"
      "  int a_;\n"
      "};\n";
  EXPECT_TRUE(run_check("uninit-member", one("src/x.hpp", src)).empty());
}

TEST(AtLintUninit, OpaqueCallMakesCtorUnjudgeable) {
  // init() might set a_ — prefer the false negative.
  const std::string src =
      "struct S {\n"
      "  S() { init(); }\n"
      "  void init();\n"
      "  int a_;\n"
      "};\n";
  EXPECT_TRUE(run_check("uninit-member", one("src/x.hpp", src)).empty());
}

TEST(AtLintUninit, NonScalarFieldsAreOutOfScope) {
  const std::string src =
      "struct S {\n"
      "  S() {}\n"
      "  std::string name_;\n"
      "  std::vector<int> items_;\n"
      "};\n";
  EXPECT_TRUE(run_check("uninit-member", one("src/x.hpp", src)).empty());
}

TEST(AtLintUninit, OutOfLineCtorInSiblingCppIsChecked) {
  std::vector<SourceFile> files;
  files.push_back({"src/s.hpp",
                   "#pragma once\nstruct S {\n  S();\n  int a_;\n  int b_;\n};\n"});
  files.push_back({"src/s.cpp", "#include \"s.hpp\"\nS::S() : a_(1) {}\n"});
  const auto vs = run_check("uninit-member", files);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].file, "src/s.cpp");
  EXPECT_NE(vs[0].message.find("b_"), std::string::npos);
}

// ------------------------------------------------------ inline suppressions

TEST(AtLintSuppress, SameLineCommentSuppressesNamedRule) {
  const std::string src =
      "int v = rand();  // at_lint: allow(banned-call) — fixture, not shipped\n";
  EXPECT_TRUE(run_check("banned-call", one("src/x.cpp", src)).empty());
}

TEST(AtLintSuppress, StandaloneCommentCoversNextCodeLine) {
  const std::string src =
      "// at_lint: allow(banned-call) — documented one-off\n"
      "int v = rand();\n";
  EXPECT_TRUE(run_check("banned-call", one("src/x.cpp", src)).empty());
}

TEST(AtLintSuppress, WrongRuleNameDoesNotSuppress) {
  const std::string src =
      "int v = rand();  // at_lint: allow(determinism) — wrong rule\n";
  EXPECT_FALSE(run_check("banned-call", one("src/x.cpp", src)).empty());
}

TEST(AtLintSuppress, WildcardAndMultiRuleForms) {
  EXPECT_TRUE(run_check("banned-call",
                        one("src/x.cpp", "int v = rand();  // at_lint: allow(*) — all\n"))
                  .empty());
  EXPECT_TRUE(
      run_check("banned-call",
                one("src/x.cpp",
                    "int v = rand();  // at_lint: allow(determinism, banned-call) — both\n"))
          .empty());
}

TEST(AtLintSuppress, SuppressionDoesNotLeakToOtherLines) {
  const std::string src =
      "int a = rand();  // at_lint: allow(banned-call) — this line only\n"
      "int b = rand();\n";
  const auto vs = run_check("banned-call", one("src/x.cpp", src));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 2u);
}

// ---------------------------------------------------------------- allowlist

TEST(AtLintAllowlist, SuppressesMatchingViolation) {
  const auto allow = Allowlist::parse("# comment\nbanned-call src/x.cpp rand()\n");
  EXPECT_EQ(allow.size(), 1u);
  const auto vs =
      run_all(one("src/x.cpp", "#include \"x.hpp\"\nint v = rand();\n"), allow);
  EXPECT_FALSE(has_rule(vs, "banned-call"));
}

TEST(AtLintAllowlist, TokenMustMatchExcerpt) {
  const auto allow = Allowlist::parse("banned-call src/x.cpp strtok(\n");
  const auto vs = run_all(one("src/x.cpp", "int v = rand();\n"), allow);
  EXPECT_TRUE(has_rule(vs, "banned-call"));
}

TEST(AtLintAllowlist, WildcardFileMatchesEverything) {
  const auto allow = Allowlist::parse("banned-call * rand\n");
  const auto vs = run_all(one("src/deep/nested/x.cpp", "int v = rand();\n"), allow);
  EXPECT_FALSE(has_rule(vs, "banned-call"));
}

TEST(AtLintAllowlist, MatchCountsExposeStaleEntries) {
  const auto allow = Allowlist::parse(
      "banned-call src/x.cpp rand\n"
      "raw-new-delete src/gone.cpp new int\n");
  RunOptions opts;
  opts.allow = &allow;
  const auto result = run(one("src/x.cpp", "int v = rand();\n"), opts);
  EXPECT_TRUE(result.violations.empty());
  const auto counts = allow.match_counts(result.raw);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1u);  // live
  EXPECT_EQ(counts[1], 0u);  // stale: nothing trips it anymore
}

// -------------------------------------------------------- output stability

TEST(AtLintParallel, OutputIsStableAcrossRuns) {
  // Determinism regression: two runs over the same inputs must emit
  // byte-identical violation sequences (sorted merge, no map-order leaks).
  std::vector<SourceFile> files;
  files.push_back({"src/z.hpp", "int raw = rand();\n"});
  files.push_back({"src/a.cpp", "delete p;\nint q = rand();\n"});
  const auto first = run(files, RunOptions{});
  const auto second = run(files, RunOptions{});
  ASSERT_EQ(first.violations.size(), second.violations.size());
  for (std::size_t i = 0; i < first.violations.size(); ++i) {
    EXPECT_EQ(first.violations[i].file, second.violations[i].file);
    EXPECT_EQ(first.violations[i].line, second.violations[i].line);
    EXPECT_EQ(first.violations[i].rule, second.violations[i].rule);
    EXPECT_EQ(first.violations[i].message, second.violations[i].message);
  }
}

// -------------------------------------------------------------------- SARIF

TEST(AtLintSarif, EmitsSchemaRulesAndResults) {
  std::vector<Violation> vs;
  vs.push_back({"banned-call", "src/x.cpp", 7, "rand() is banned", "int v = rand();", 9});
  const std::string sarif = to_sarif(vs);
  EXPECT_NE(sarif.find("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"at_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"banned-call\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":7"), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\":9"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/x.cpp\""), std::string::npos);
  // Every registered rule appears as a reportingDescriptor.
  for (const Check* check : registry()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(check->name()) + "\""),
              std::string::npos)
        << check->name();
  }
}

TEST(AtLintSarif, OmitsStartColumnForLineGranularFindings) {
  // Project-wide rules (include-cycle, lock-order, ...) have no single
  // token to anchor to; their column stays 0 and SARIF omits startColumn.
  std::vector<Violation> vs;
  vs.push_back({"include-cycle", "src/a.hpp", 1, "cycle", "src/b.hpp"});
  const std::string sarif = to_sarif(vs);
  EXPECT_EQ(sarif.find("startColumn"), std::string::npos);
}

TEST(AtLintSarif, BalancedBracesAndNoResultsWhenClean) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
            std::count(sarif.begin(), sarif.end(), ']'));
}

TEST(AtLintSarif, EscapesJsonMetacharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  std::vector<Violation> vs;
  vs.push_back({"banned-call", "src/x.cpp", 1, "msg with \"quotes\"", "ex"});
  const std::string sarif = to_sarif(vs);
  EXPECT_NE(sarif.find("msg with \\\"quotes\\\""), std::string::npos);
}

// --------------------------------------------------------------- header TUs

TEST(AtLintHeaderTus, GeneratesOnePerSrcHeader) {
  std::vector<SourceFile> files;
  files.push_back({"src/util/thing.hpp", "#pragma once\n"});
  files.push_back({"src/net/wire.hpp", "#pragma once\n"});
  files.push_back({"src/net/wire.cpp", "#include \"net/wire.hpp\"\n"});
  files.push_back({"tools/at_lint/lint.hpp", "#pragma once\n"});  // not src/
  const auto tus = generate_header_tus(files);
  ASSERT_EQ(tus.size(), 2u);
  const auto util_tu = std::find_if(tus.begin(), tus.end(), [](const HeaderTu& tu) {
    return tu.name.find("util_thing") != std::string::npos;
  });
  ASSERT_NE(util_tu, tus.end());
  EXPECT_NE(util_tu->name.find("tu_util_thing"), std::string::npos);
  EXPECT_NE(util_tu->content.find("#include \"util/thing.hpp\""), std::string::npos);
}

// ------------------------------------------------------------------ run_all

TEST(AtLintRunAll, AggregatesAndSortsAcrossRules) {
  std::vector<SourceFile> files;
  files.push_back({"src/z.hpp", "int raw = rand();\n"});  // pragma-once + banned
  const auto vs = run_all(files, Allowlist::parse(""));
  EXPECT_TRUE(has_rule(vs, "pragma-once"));
  EXPECT_TRUE(has_rule(vs, "banned-call"));
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end(), [](const auto& a, const auto& b) {
    return std::tie(a.file, a.line, a.column, a.rule) <
           std::tie(b.file, b.line, b.column, b.rule);
  }));
}

TEST(AtLintRegistry, HasAllFifteenChecksInStableOrder) {
  const auto& checks = registry();
  ASSERT_EQ(checks.size(), 15u);
  std::vector<std::string> names;
  for (const Check* c : checks) names.emplace_back(c->name());
  const std::vector<std::string> expected = {
      "banned-call",    "pragma-once",          "include-cycle", "raw-new-delete",
      "guarded-by",     "determinism",          "lock-order",    "header-hygiene",
      "uninit-member",  "blocking-in-hot-path", "atomic-order",  "noexcept-escape",
      "taint-to-sink",  "dangling-view",        "unbounded-growth"};
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace at::lint
