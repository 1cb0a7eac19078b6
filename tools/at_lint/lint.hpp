#pragma once
// at_lint v4 — repo-native whole-program invariant checker. A dependency-free
// (no libclang) token-level analysis engine that turns the project's written
// conventions into machine-checked rules over src/, tools/, bench/ and
// tests/. It complements, not replaces, Clang -Wthread-safety: the compiler
// checks lock discipline inside one TU; at_lint checks the repo-shaped,
// cross-TU invariants a compiler has no opinion on.
//
// The engine runs in two phases, one serial pass over the files each
// (docs/static-analysis.md has the write-up):
//   phase 1  lex each file, run the per-file rules and extract FileFacts —
//     the include list, container-typed fields, function definitions with
//     their outgoing calls / lock acquisitions / blocking sites / throw
//     sites / atomic ops, and inline suppressions.
//   phase 2  link facts into project-wide symbol, call and lock graphs
//     (link.hpp) and run the cross-TU rules over them.
//
// Files:
//   lexer.hpp    — C++ lexer: comments, literals (incl. raw strings),
//                  line continuations, preprocessor lines → TokenStream.
//   facts.hpp    — phase-1 fact extraction (functions, calls, locks,
//                  blocking/atomic/throw sites, container fields, dataflow
//                  summaries; dataflow.cpp holds the flow extractor).
//   link.hpp     — phase-2 linker: ProjectGraph (call resolution through
//                  include closures, lock summaries, hot reachability,
//                  throw propagation, worklist taint propagation).
//   lint.hpp/cpp — engine: orchestration, inline suppressions, Check
//                  registry, allowlist.
//   checks.cpp   — the fifteen rules, each a Check subclass.
//   sarif.hpp    — SARIF 2.1.0 JSON for CI code-scanning annotation.
//
// Rules:
//   banned-call     rand/strtok/gmtime anywhere in src/; std::sto* outside
//                   a try block; raw exp() in src/fg/ hot paths.
//   pragma-once     every .hpp starts with #pragma once.
//   include-cycle   the quoted-include graph over the scanned files is a DAG.
//   raw-new-delete  no naked new/delete outside src/util/ (placement new
//                   into owned storage is allowed).
//   guarded-by      a field written inside a util::LockGuard scope must be
//                   declared with AT_GUARDED_BY (or AT_NOT_GUARDED).
//   determinism     no iteration over std::unordered_{map,set} feeding an
//                   order-sensitive sink (push_back/stream/float +=) in
//                   src/ (ordered sinks and post-loop sorts are escape
//                   hatches); member fields declared unordered in OTHER
//                   headers are resolved through the project field index;
//                   no std::random_device / system_clock / std::time
//                   outside src/util/rng + src/util/time_utils.
//   lock-order      the util::LockGuard acquisition graph — nested scopes,
//                   AT_ACQUIRED_{BEFORE,AFTER} hints, and acquisitions
//                   propagated through helper calls via call-graph
//                   summaries + AT_ACQUIRES(mu) — is cycle-free.
//   header-hygiene  a src/ file naming a type declared by a project header
//                   it reaches only transitively must include that header
//                   directly (self-containment TUs cover the converse).
//   uninit-member   a constructor must not leave a scalar/pointer field
//                   with no default initializer unassigned.
//   blocking-in-hot-path  functions transitively reachable from an AT_HOT
//                   function or a sim::Engine / shard drain loop must not
//                   sleep, do I/O, malloc, or block on a condition.
//   atomic-order    a relaxed atomic load must not feed a pointer deref or
//                   flag-guarded read of other state (needs acquire), and
//                   atomic ops inside hot-path functions must spell their
//                   memory order explicitly (no silent seq_cst).
//   noexcept-escape a noexcept function, destructor, or ThreadPool task
//                   must not reach a `throw` through the call graph.
//   taint-to-sink   a value from an AT_UNTRUSTED source (Zeek / honeypot /
//                   replay parse entry points) must not reach an allocation
//                   size, array index, file path, or format call without a
//                   bounds check or an AT_SANITIZES hop on the path; the
//                   diagnostic prints the interprocedural taint chain.
//   dangling-view   a string_view/span/reference must not borrow from a
//                   temporary (ternary materialization, substr, concat) or
//                   outlive a container mutation that invalidates it, and a
//                   view-returning function must not return a local buffer.
//   unbounded-growth a member map/vector keyed or grown by tainted data
//                   must carry an eviction path or an AT_BOUNDED annotation
//                   (the daemon's bounded-ring invariant, repo-wide).
//
// Suppressing a finding (both forms need a written justification):
//   - inline: // at_lint: allow(rule[,rule]) — <why>   (same line, or the
//     next code line when the comment stands alone)
//   - tools/at_lint/allowlist.txt: `rule file excerpt-substring` lines.
// --check-stale-allowlist flags entries of EITHER kind that no longer
// suppress anything.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "at_lint/lexer.hpp"

namespace at::lint {

/// One scanned file. `path` is repo-relative with '/' separators (rules
/// dispatch on prefixes like "src/fg/"); `content` is the raw bytes.
struct SourceFile {
  std::string path;
  std::string content;
};

struct Violation {
  std::string rule;
  std::string file;
  std::size_t line = 0;  ///< 1-based
  std::string message;
  std::string excerpt;  ///< trimmed source line, for allowlist matching
  /// 1-based byte column of the offending token; 0 = line-granular finding
  /// (project-wide rules with no single token to point at). Declared last
  /// so positional aggregate initialization stays source-compatible.
  std::size_t column = 0;
};

/// Per-file facts the project-wide checks consume. Extracted once per file.
struct FileFacts {
  std::vector<std::string> quoted_includes;  ///< #include "..." as written

  /// `first` held while `second` is acquired (nested LockGuard scopes), or
  /// an AT_ACQUIRED_BEFORE/AFTER hint edge. Mutex names are normalized
  /// argument spellings ("mu_", "shard.mu_").
  struct LockEdge {
    std::string first;
    std::string second;
    std::uint32_t line = 0;
  };
  std::vector<LockEdge> lock_edges;

  /// Type names this file defines (class/struct/enum definitions and
  /// top-level `using X = ...;` aliases). Used by header-hygiene.
  std::vector<std::string> declared_types;

  /// Capitalized identifiers used, with first-use line (header-hygiene).
  struct UsedType {
    std::string name;
    std::uint32_t line = 0;
  };
  std::vector<UsedType> used_types;

  /// Inline suppressions: (rule or "*", target line). `hits` counts the
  /// per-file violations this entry suppressed at analyze time;
  /// project-phase hits are tallied after linking. An entry with zero hits
  /// from both phases is stale.
  struct Suppression {
    std::string rule;
    std::uint32_t line = 0;
    std::uint32_t hits = 0;
  };
  std::vector<Suppression> suppressions;

  /// Container-typed member-shaped fields (`counts_`), for cross-TU
  /// determinism: a loop in bar.cpp over a field declared in foo.hpp
  /// resolves through the project-wide field index.
  struct ContainerField {
    std::string name;
    char kind = 'u';  ///< 'u' unordered, 'o' ordered, 's' sequence
    std::uint32_t line = 0;
  };
  std::vector<ContainerField> container_fields;

  /// A loop over a member-shaped variable the file could not resolve
  /// locally (not declared here or in the sibling), feeding an
  /// order-sensitive sink with no sort/ordered-sink escape. Phase 2 fires
  /// it when every project declaration of `range_var` is unordered.
  struct PendingLoop {
    std::string range_var;
    std::string sink_var;
    std::string sink_what;
    std::uint32_t line = 0;  ///< sink line (violation anchor)
  };
  std::vector<PendingLoop> pending_loops;

  /// One call site inside a function body. `held` is the stack of lock
  /// expressions held at the call (outermost first); `in_try` means a try
  /// block encloses it (exceptions do not escape the caller).
  struct CallSite {
    std::string name;  ///< last path component ("fn" for ns::fn / obj.fn)
    std::uint32_t line = 0;
    bool in_try = false;
    std::vector<std::string> held;
  };

  /// A call that can block: sleeps, I/O, raw allocation, condition waits.
  /// LockGuard acquisitions are deliberately NOT recorded here — brief
  /// uncontended locking is the design (see docs/static-analysis.md).
  struct BlockingSite {
    std::string category;  ///< "sleep" | "io" | "alloc" | "wait"
    std::string name;
    std::uint32_t line = 0;
  };

  /// One operation on a std::atomic field declared in this file or its
  /// sibling. `order` is the memory_order_* suffix spelled at the call
  /// site ("" = defaulted seq_cst). `deref` = the loaded value is
  /// immediately dereferenced; `guards_other` = the load sits in an if
  /// condition whose body reads a different member (publication pattern).
  struct AtomicOp {
    std::string object;
    std::string op;  ///< "load" | "store" | "fetch_add" | ...
    std::string order;
    std::uint32_t line = 0;
    bool deref = false;
    bool guards_other = false;
  };

  /// One dataflow step in a function's summary: a value whose origin is a
  /// parameter (`from_param` >= 0) or the return value of a named call
  /// (`from_call` non-empty) reaches one destination — a callee argument
  /// (kind 'a'), the function's own return value (kind 'r'), or a sink
  /// (kind 's': allocation size, index, keyed growth, file path, format).
  /// Phase 2 decides whether the origin is *tainted* by propagating from
  /// AT_UNTRUSTED sources through these summaries over the call graph.
  struct FlowEdge {
    int from_param = -1;    ///< origin parameter index, -1 = none
    std::string from_call;  ///< origin callee name (last component), "" = none
    char kind = 'a';        ///< 'a' arg-pass | 'r' return | 's' sink
    std::string to_call;    ///< kind 'a': callee name
    int to_arg = -1;        ///< kind 'a': 0-based argument position
    std::string sink;       ///< kind 's': alloc-size|index|growth|path|format
    std::string detail;     ///< kind 's': container / callee the sink is on
    std::uint32_t line = 0;
    /// A comparison against the carrying variable dominates this edge (the
    /// value was bounds-checked before use), so taint does not fire here.
    bool checked = false;
  };

  /// A function definition (or an annotated declaration: AT_ACQUIRES /
  /// AT_HOT / AT_UNTRUSTED / AT_SANITIZES on a header prototype contributes
  /// its markers with no body facts). Task pseudo-functions are lambdas
  /// handed to ThreadPool submit/parallel_for*, named "task@<line>".
  struct Function {
    std::string name;  ///< qualified when enclosing class is known
    std::uint32_t line = 0;
    bool hot = false;        ///< AT_HOT marker
    bool is_noexcept = false;
    bool is_dtor = false;
    bool is_task = false;    ///< ThreadPool-submitted callable
    bool untrusted = false;  ///< AT_UNTRUSTED: params + return carry attacker bytes
    bool sanitizes = false;  ///< AT_SANITIZES: return value is validated, clears taint
    std::vector<std::string> acquires;  ///< LockGuard exprs + AT_ACQUIRES args
    std::vector<std::string> params;    ///< positional names ("" when unnamed)
    std::vector<CallSite> calls;
    std::vector<BlockingSite> blocking;
    std::vector<std::uint32_t> throw_lines;  ///< `throw expr` at try-depth 0
    std::vector<AtomicOp> atomics;
    std::vector<FlowEdge> flows;  ///< dataflow summary (see FlowEdge)
  };
  std::vector<Function> functions;

  /// Member-shaped container fields with a growth bound: either annotated
  /// AT_BOUNDED at the declaration, or showing eviction evidence in this
  /// file (erase/pop_front/pop_back/clear on the field). Unioned project-
  /// wide by the linker: eviction in one TU blesses the field everywhere.
  std::vector<std::string> bounded_fields;
};

/// Result of analyzing one file: per-file-rule violations (inline
/// suppressions already applied; the allowlist is applied after the merge)
/// plus the facts for project-wide rules.
struct FileAnalysis {
  std::string path;
  std::vector<Violation> violations;
  FileFacts facts;
};

/// Context handed to per-file rules.
struct FileCtx {
  const SourceFile& file;
  const TokenStream& tokens;
  const SourceFile* sibling = nullptr;  ///< header paired with a .cpp
  const TokenStream* sibling_tokens = nullptr;
};

struct ProjectGraph;  // link.hpp

/// Context handed to project-wide rules after every file is analyzed and
/// the link phase has resolved the cross-TU graphs.
struct ProjectCtx {
  const std::vector<FileAnalysis>& files;
  const ProjectGraph* graph = nullptr;
};

/// A rule. Implementations live in checks.cpp and register via registry().
/// Per-file work goes in file(); cross-file work goes in project()
/// (consumes FileFacts only).
class Check {
 public:
  virtual ~Check() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view summary() const noexcept = 0;
  virtual void file(const FileCtx& ctx, std::vector<Violation>& out) const;
  virtual void project(const ProjectCtx& ctx, std::vector<Violation>& out) const;
};

/// All fifteen checks, in stable registration order.
[[nodiscard]] const std::vector<const Check*>& registry();

/// Allowlist entry: `rule<spaces>file<spaces>token...`. Empty token matches
/// any violation of (rule, file); otherwise the violation's excerpt must
/// contain the token. '#' starts a comment.
struct AllowEntry {
  std::string rule;
  std::string file;
  std::string token;
};

class Allowlist {
 public:
  static Allowlist parse(std::string_view text);

  [[nodiscard]] bool allows(const Violation& violation) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<AllowEntry>& entries() const noexcept { return entries_; }

  /// Per-entry match counts over `violations` (pre-allowlist). An entry
  /// with count 0 is stale: the code it excused no longer trips the rule.
  [[nodiscard]] std::vector<std::size_t> match_counts(
      const std::vector<Violation>& violations) const;

 private:
  std::vector<AllowEntry> entries_;
};

struct RunStats {
  std::size_t files = 0;
  std::size_t raw_violations = 0;    ///< pre-allowlist (post inline suppression)
  std::size_t allowlisted = 0;
  // Per-phase wall times. analyze_ms/project_ms are kept as the two-phase
  // aggregates (analyze = lex + extract, project = link + check + merge).
  double lex_ms = 0.0;      ///< tokenizing every file
  double extract_ms = 0.0;  ///< per-file rules + fact extraction
  double link_ms = 0.0;     ///< ProjectGraph build (call/lock/hot resolution)
  double check_ms = 0.0;    ///< project rules + suppression + merge + sort
  double analyze_ms = 0.0;  ///< per-file phase (lex + file rules)
  double project_ms = 0.0;  ///< project rules + merge + sort

  /// Per-rule breakdown, in registry order. file_ms sums the rule's
  /// file() time across files; project_ms is its project() pass;
  /// violations counts raw (pre-allowlist) findings.
  struct RuleStat {
    std::string name;
    double file_ms = 0.0;
    double project_ms = 0.0;
    std::size_t violations = 0;
  };
  std::vector<RuleStat> rules;
};

struct RunOptions {
  const Allowlist* allow = nullptr;  ///< optional
};

/// An inline `// at_lint: allow(...)` that suppressed nothing this run —
/// neither a per-file finding nor a project finding.
struct StaleSuppression {
  std::string file;
  std::string rule;
  std::uint32_t line = 0;
};

struct RunResult {
  std::vector<Violation> violations;  ///< post-allowlist, sorted
  std::vector<Violation> raw;         ///< pre-allowlist, sorted (stale check)
  std::vector<StaleSuppression> stale_suppressions;  ///< sorted by file/line
  RunStats stats;
};

/// Run every registered check over `files`.
[[nodiscard]] RunResult run(const std::vector<SourceFile>& files, const RunOptions& opts);

/// Run a single rule by name over `files` (tests and focused tooling).
[[nodiscard]] std::vector<Violation> run_check(std::string_view rule,
                                               const std::vector<SourceFile>& files);

/// Convenience single-rule wrappers (unit-test surface, stable across the
/// v1 line-scanner → v2 token-engine rewrite).
[[nodiscard]] std::vector<Violation> check_banned_calls(const std::vector<SourceFile>& files);
[[nodiscard]] std::vector<Violation> check_pragma_once(const std::vector<SourceFile>& files);
[[nodiscard]] std::vector<Violation> check_include_cycles(const std::vector<SourceFile>& files);
[[nodiscard]] std::vector<Violation> check_raw_new_delete(const std::vector<SourceFile>& files);
[[nodiscard]] std::vector<Violation> check_guarded_by(const std::vector<SourceFile>& files);

/// Run every rule and drop allowlisted findings.
[[nodiscard]] std::vector<Violation> run_all(const std::vector<SourceFile>& files,
                                             const Allowlist& allow);

/// Header self-containment: one generated TU per src/**.hpp that includes
/// only that header. Compiling them (the CMake `lint` target does) proves
/// every header includes what it uses.
struct HeaderTu {
  std::string name;     ///< e.g. "tu_util_thread_pool.cpp"
  std::string content;  ///< "#include \"util/thread_pool.hpp\"\n"
};
[[nodiscard]] std::vector<HeaderTu> generate_header_tus(const std::vector<SourceFile>& files);

// ---- engine internals shared by checks.cpp / tests ----

/// The trimmed source line containing 1-based `line` of `content`.
[[nodiscard]] std::string line_excerpt(std::string_view content, std::size_t line);

/// 1-based column of byte `offset` within its line of `content` (tab = one
/// column; SARIF's default unit). Saturates to the last byte + 1 when
/// `offset` runs past the end.
[[nodiscard]] std::size_t column_of(std::string_view content, std::size_t offset) noexcept;

/// Path of the sibling header a .cpp pairs with ("src/a/b.cpp" → "src/a/b.hpp").
[[nodiscard]] std::string sibling_header_path(std::string_view path);

}  // namespace at::lint
