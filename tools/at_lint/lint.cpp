#include "at_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "at_lint/facts.hpp"
#include "at_lint/link.hpp"
#include "at_lint/token_util.hpp"

namespace at::lint {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool all_macro_case(std::string_view name) {
  for (const char c : name) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------- facts

void extract_includes(const TokenStream& ts, FileFacts& facts) {
  const auto& toks = ts.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (tok::is_punct(toks, i, "#") && toks[i].in_pp && tok::is_ident(toks, i + 1, "include") &&
        toks[i + 2].kind == TokKind::kString) {
      facts.quoted_includes.push_back(toks[i + 2].text);
    }
  }
}

void extract_lock_edges(const TokenStream& ts, FileFacts& facts) {
  const auto& toks = ts.tokens;
  struct Held {
    std::string expr;  // empty = lambda barrier
    int depth = 0;
  };
  std::vector<Held> held;
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "{") {
        ++depth;
      } else if (t.text == "}") {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      } else if (t.text == "[") {
        // A lambda body defers execution: acquisitions inside it are NOT
        // nested under the enclosing scope's guards. Push a barrier.
        const std::size_t body = tok::lambda_body(toks, i);
        if (body != tok::kNpos) {
          i = body;  // jump to the body's '{' (no braces occur in between)
          ++depth;
          held.push_back({std::string(), depth});
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "LockGuard") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;  // guard name
      if (!tok::is_punct(toks, j, "(") && !tok::is_punct(toks, j, "{")) continue;
      const bool paren = toks[j].text == "(";
      const std::size_t close = tok::match_forward(toks, j, paren ? "(" : "{", paren ? ")" : "}");
      if (close == tok::kNpos) continue;
      const std::string expr = tok::spelling(toks, j + 1, close);
      if (expr.empty()) continue;
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->expr.empty()) break;  // lambda barrier
        facts.lock_edges.push_back({it->expr, expr, t.line});
      }
      held.push_back({expr, depth});
      i = close;
      continue;
    }
    // in_pp skips the macro's own #define line in annotated_mutex.hpp.
    const bool before = t.text == "AT_ACQUIRED_BEFORE" && !t.in_pp;
    const bool after = t.text == "AT_ACQUIRED_AFTER" && !t.in_pp;
    if (before || after) {
      if (!tok::is_punct(toks, i + 1, "(")) continue;
      const std::size_t close = tok::match_forward(toks, i + 1, "(", ")");
      if (close == tok::kNpos) continue;
      // The annotated mutex is the nearest identifier before the macro.
      std::string self;
      for (std::size_t k = i; k-- > 0;) {
        if (toks[k].kind == TokKind::kIdent) {
          self = toks[k].text;
          break;
        }
      }
      if (self.empty()) continue;
      // Split the argument list on top-level commas.
      std::size_t arg_begin = i + 2;
      std::size_t d = 0;
      for (std::size_t k = i + 2; k <= close; ++k) {
        const bool end = k == close;
        if (tok::is_punct(toks, k, "(")) ++d;
        if (tok::is_punct(toks, k, ")") && !end) --d;
        if (end || (d == 0 && tok::is_punct(toks, k, ","))) {
          const std::string arg = tok::spelling(toks, arg_begin, k);
          if (!arg.empty()) {
            if (before) {
              facts.lock_edges.push_back({self, arg, t.line});
            } else {
              facts.lock_edges.push_back({arg, self, t.line});
            }
          }
          arg_begin = k + 1;
        }
      }
      i = close;
    }
  }
}

void extract_types(const TokenStream& ts, FileFacts& facts) {
  const auto& toks = ts.tokens;
  std::unordered_set<std::string> declared;
  std::unordered_set<std::string> used;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "class" || t.text == "struct" || t.text == "enum") {
      std::size_t j = i + 1;
      if (t.text == "enum" &&
          (tok::is_ident(toks, j, "class") || tok::is_ident(toks, j, "struct"))) {
        ++j;
      }
      // Collect idents (macro markers like AT_SCOPED_CAPABILITY ride between
      // the keyword and the name); the last one before `{`/`:`/`final` is
      // the name. Anything else first means fwd-decl / template param.
      std::string name;
      while (j < toks.size() && toks[j].kind == TokKind::kIdent) {
        if (toks[j].text == "final") break;
        name = toks[j].text;
        ++j;
      }
      if (!name.empty() &&
          (tok::is_punct(toks, j, "{") || tok::is_punct(toks, j, ":") ||
           tok::is_ident(toks, j, "final"))) {
        declared.insert(name);
      }
      i = j > i ? j - 1 : i;
      continue;
    }
    if (t.text == "using" && i + 2 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
        tok::is_punct(toks, i + 2, "=")) {
      declared.insert(toks[i + 1].text);
      i += 2;
      continue;
    }
    // Capitalized use (project type names are CamelCase; macros are
    // SHOUTING_CASE and skipped).
    const char first = t.text.front();
    if (std::isupper(static_cast<unsigned char>(first)) != 0 && t.text.size() >= 3 &&
        !all_macro_case(t.text) && !t.in_pp) {
      const bool decl_pos =
          i > 0 && (tok::is_ident(toks, i - 1, "class") || tok::is_ident(toks, i - 1, "struct") ||
                    tok::is_ident(toks, i - 1, "enum") || tok::is_ident(toks, i - 1, "typename"));
      if (!decl_pos && used.insert(t.text).second) {
        facts.used_types.push_back({t.text, t.line});
      }
    }
  }
  facts.declared_types.assign(declared.begin(), declared.end());
  std::sort(facts.declared_types.begin(), facts.declared_types.end());
}

/// `// at_lint: allow(rule1, rule2) — justification` suppresses those rules
/// on the comment's line, or — when the comment stands alone — on the next
/// line that carries code. The tag must open the comment (only whitespace
/// before it): prose that merely *mentions* the syntax, like this
/// docstring, is not a suppression — and must not show up as a stale one.
void extract_suppressions(const TokenStream& ts, FileFacts& facts) {
  for (const Comment& comment : ts.comments) {
    const std::size_t tag = comment.text.find("at_lint:");
    if (tag == std::string::npos) continue;
    const std::string_view before = std::string_view(comment.text).substr(0, tag);
    if (before.find_first_not_of(" \t/*!<") != std::string_view::npos) continue;
    const std::size_t allow = comment.text.find("allow", tag);
    if (allow == std::string::npos) continue;
    const std::size_t open = comment.text.find('(', allow);
    const std::size_t close = comment.text.find(')', open == std::string::npos ? 0 : open);
    if (open == std::string::npos || close == std::string::npos) continue;

    std::uint32_t target = comment.line;
    if (comment.own_line) {
      // A standalone comment applies to the next line that carries code
      // (code trailing a block comment's closing line counts as that line).
      std::uint32_t next = 0;
      bool code_on_end_line = false;
      for (const Token& t : ts.tokens) {
        if (t.line == comment.end_line) code_on_end_line = true;
        if (t.line > comment.end_line && (next == 0 || t.line < next)) next = t.line;
      }
      if (code_on_end_line) {
        target = comment.end_line;
      } else if (next != 0) {
        target = next;
      }
    }
    std::string_view args(comment.text);
    args = args.substr(open + 1, close - open - 1);
    while (!args.empty()) {
      const std::size_t comma = args.find(',');
      const std::string_view rule = trim(args.substr(0, comma));
      if (!rule.empty()) facts.suppressions.push_back({std::string(rule), target});
      if (comma == std::string_view::npos) break;
      args.remove_prefix(comma + 1);
    }
  }
}

/// Index of the inline suppression matching `v`, or kNpos. Callers count
/// the entry's hits (per-file hits on the facts, project hits after
/// linking) so --check-stale-allowlist can flag dead ones.
std::size_t find_suppression(const FileFacts& facts, const Violation& v) {
  for (std::size_t k = 0; k < facts.suppressions.size(); ++k) {
    const auto& s = facts.suppressions[k];
    if (s.line == v.line && (s.rule == "*" || s.rule == v.rule)) return k;
  }
  return tok::kNpos;
}

}  // namespace

// ---------------------------------------------------------------- helpers

void Check::file(const FileCtx&, std::vector<Violation>&) const {}
void Check::project(const ProjectCtx&, std::vector<Violation>&) const {}

std::string line_excerpt(std::string_view content, std::size_t line) {
  std::size_t start = 0;
  for (std::size_t n = 1; n < line && start < content.size(); ++n) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) return std::string();
    start = nl + 1;
  }
  std::size_t end = content.find('\n', start);
  if (end == std::string_view::npos) end = content.size();
  return std::string(trim(content.substr(start, end - start)));
}

std::size_t column_of(std::string_view content, std::size_t offset) noexcept {
  if (offset > content.size()) offset = content.size();
  const std::size_t line_start =
      offset == 0 ? 0 : content.rfind('\n', offset - 1) + 1;  // npos + 1 == 0
  return offset - line_start + 1;
}

std::string sibling_header_path(std::string_view path) {
  if (path.size() < 4 || path.substr(path.size() - 4) != ".cpp") return std::string();
  return std::string(path.substr(0, path.size() - 4)) + ".hpp";
}

// ---------------------------------------------------------------- allowlist

Allowlist Allowlist::parse(std::string_view text) {
  Allowlist allow;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    auto line = trim(text.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line.front() == '#') {
      if (end == text.size()) break;
      continue;
    }
    AllowEntry entry;
    const auto take_word = [&line]() {
      std::size_t word_end = 0;
      while (word_end < line.size() &&
             std::isspace(static_cast<unsigned char>(line[word_end])) == 0) {
        ++word_end;
      }
      const auto word = line.substr(0, word_end);
      line = trim(line.substr(word_end));
      return std::string(word);
    };
    entry.rule = take_word();
    entry.file = take_word();
    entry.token = std::string(line);  // rest of line, may contain spaces
    if (!entry.rule.empty() && !entry.file.empty()) allow.entries_.push_back(std::move(entry));
    if (end == text.size()) break;
  }
  return allow;
}

namespace {

bool entry_matches(const AllowEntry& entry, const Violation& violation) {
  if (entry.rule != "*" && entry.rule != violation.rule) return false;
  if (entry.file != "*" && entry.file != violation.file) return false;
  return entry.token.empty() ||
         violation.excerpt.find(entry.token) != std::string::npos;
}

}  // namespace

bool Allowlist::allows(const Violation& violation) const {
  for (const auto& entry : entries_) {
    if (entry_matches(entry, violation)) return true;
  }
  return false;
}

std::vector<std::size_t> Allowlist::match_counts(
    const std::vector<Violation>& violations) const {
  std::vector<std::size_t> counts(entries_.size(), 0);
  for (const auto& v : violations) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entry_matches(entries_[i], v)) ++counts[i];
    }
  }
  return counts;
}

// ---------------------------------------------------------------- engine

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Analyze one file (per-file rules → inline suppressions → facts).
/// `sibling` is the paired header for a .cpp, when scanned. rule_ms[c]
/// accumulates checks[c]'s file() time for --stats.
FileAnalysis analyze_file(const SourceFile& file, const TokenStream& tokens,
                          const SourceFile* sibling, const TokenStream* sibling_tokens,
                          const std::vector<const Check*>& checks,
                          std::vector<double>& rule_ms) {
  FileAnalysis out;
  out.path = file.path;
  extract_includes(tokens, out.facts);
  extract_lock_edges(tokens, out.facts);
  extract_types(tokens, out.facts);
  extract_suppressions(tokens, out.facts);
  facts::extract_code_facts(tokens, sibling_tokens, out.facts);

  FileCtx ctx{file, tokens, sibling, sibling_tokens};
  std::vector<Violation> found;
  for (std::size_t c = 0; c < checks.size(); ++c) {
    const auto start = Clock::now();
    checks[c]->file(ctx, found);
    rule_ms[c] += ms_between(start, Clock::now());
  }
  for (auto& v : found) {
    const std::size_t s = find_suppression(out.facts, v);
    if (s == tok::kNpos) {
      out.violations.push_back(std::move(v));
    } else {
      ++out.facts.suppressions[s].hits;
    }
  }
  return out;
}

/// One serial pass of `checks` over `files`: lex every file, analyze it,
/// link the facts, run the project rules, then merge, sort and filter.
RunResult run_checks(const std::vector<SourceFile>& files,
                     const std::vector<const Check*>& checks, const Allowlist* allow) {
  const auto t0 = Clock::now();
  RunResult result;
  const std::size_t n = files.size();
  result.stats.files = n;

  std::vector<TokenStream> streams(n);
  for (std::size_t i = 0; i < n; ++i) streams[i] = lex(files[i].content);
  const auto t_lex = Clock::now();

  // A .cpp is analyzed with its sibling header, because guarded-by and
  // determinism read declarations from it.
  std::unordered_map<std::string_view, std::size_t> by_path;
  by_path.reserve(n);
  for (std::size_t i = 0; i < n; ++i) by_path.emplace(files[i].path, i);
  std::vector<FileAnalysis> analyses;
  analyses.reserve(n);
  std::vector<double> file_rule_ms(checks.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string sib = sibling_header_path(files[i].path);
    const auto it = sib.empty() ? by_path.end() : by_path.find(std::string_view(sib));
    const bool paired = it != by_path.end();
    analyses.push_back(analyze_file(files[i], streams[i],
                                    paired ? &files[it->second] : nullptr,
                                    paired ? &streams[it->second] : nullptr, checks,
                                    file_rule_ms));
  }
  const auto t1 = Clock::now();

  // Phase 2: link facts into the project graphs, then run the project-wide
  // rules.
  const ProjectGraph graph = link_project(analyses);
  const auto t_link = Clock::now();
  ProjectCtx project_ctx{analyses, &graph};
  std::vector<Violation> project_violations;
  std::vector<double> project_rule_ms(checks.size(), 0.0);
  for (std::size_t c = 0; c < checks.size(); ++c) {
    const auto start = Clock::now();
    checks[c]->project(project_ctx, project_violations);
    project_rule_ms[c] = ms_between(start, Clock::now());
  }

  std::unordered_map<std::string_view, const FileFacts*> facts_of;
  for (const auto& a : analyses) facts_of.emplace(a.path, &a.facts);
  // Inline suppressions consumed by project findings are tallied here: the
  // finding depends on other files' facts, so analyze_file cannot see it.
  std::set<std::pair<std::string, std::size_t>> project_hits;
  for (auto& v : project_violations) {
    const auto it = facts_of.find(std::string_view(v.file));
    if (it != facts_of.end()) {
      const std::size_t s = find_suppression(*it->second, v);
      if (s != tok::kNpos) {
        project_hits.emplace(v.file, s);
        continue;
      }
    }
    result.raw.push_back(std::move(v));
  }
  for (const auto& a : analyses) {
    result.raw.insert(result.raw.end(), a.violations.begin(), a.violations.end());
  }
  const auto order = [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.column, a.rule, a.message) <
           std::tie(b.file, b.line, b.column, b.rule, b.message);
  };
  std::sort(result.raw.begin(), result.raw.end(), order);
  result.stats.raw_violations = result.raw.size();

  for (const auto& v : result.raw) {
    if (allow != nullptr && allow->allows(v)) {
      ++result.stats.allowlisted;
      continue;
    }
    result.violations.push_back(v);
  }

  // Stale inline suppressions. A suppression's hit count merges two
  // sources: per-file hits, counted by analyze_file, and project-phase
  // hits, tallied above. Only zero hits from BOTH sources means stale:
  // dropping the per-file side would flag every per-file suppression,
  // dropping the project side every cross-TU one.
  for (const auto& a : analyses) {
    for (std::size_t s = 0; s < a.facts.suppressions.size(); ++s) {
      const auto& sup = a.facts.suppressions[s];
      const std::size_t merged_hits =
          sup.hits + (project_hits.contains({a.path, s}) ? 1 : 0);
      if (merged_hits == 0) {
        result.stale_suppressions.push_back({a.path, sup.rule, sup.line});
      }
    }
  }
  std::sort(result.stale_suppressions.begin(), result.stale_suppressions.end(),
            [](const StaleSuppression& a, const StaleSuppression& b) {
              return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
            });

  // Per-rule attribution for --stats, with raw (pre-allowlist) counts.
  result.stats.rules.reserve(checks.size());
  for (std::size_t c = 0; c < checks.size(); ++c) {
    RunStats::RuleStat rs;
    rs.name = std::string(checks[c]->name());
    rs.file_ms = file_rule_ms[c];
    rs.project_ms = project_rule_ms[c];
    rs.violations = static_cast<std::size_t>(
        std::count_if(result.raw.begin(), result.raw.end(),
                      [&rs](const Violation& v) { return v.rule == rs.name; }));
    result.stats.rules.push_back(std::move(rs));
  }

  const auto t2 = Clock::now();
  result.stats.lex_ms = ms_between(t0, t_lex);
  result.stats.extract_ms = ms_between(t_lex, t1);
  result.stats.link_ms = ms_between(t1, t_link);
  result.stats.check_ms = ms_between(t_link, t2);
  result.stats.analyze_ms = ms_between(t0, t1);
  result.stats.project_ms = ms_between(t1, t2);
  return result;
}

}  // namespace

RunResult run(const std::vector<SourceFile>& files, const RunOptions& opts) {
  return run_checks(files, registry(), opts.allow);
}

std::vector<Violation> run_check(std::string_view rule, const std::vector<SourceFile>& files) {
  for (const Check* check : registry()) {
    if (check->name() == rule) return run_checks(files, {check}, nullptr).raw;
  }
  return {};
}

std::vector<Violation> check_banned_calls(const std::vector<SourceFile>& files) {
  return run_check("banned-call", files);
}
std::vector<Violation> check_pragma_once(const std::vector<SourceFile>& files) {
  return run_check("pragma-once", files);
}
std::vector<Violation> check_include_cycles(const std::vector<SourceFile>& files) {
  return run_check("include-cycle", files);
}
std::vector<Violation> check_raw_new_delete(const std::vector<SourceFile>& files) {
  return run_check("raw-new-delete", files);
}
std::vector<Violation> check_guarded_by(const std::vector<SourceFile>& files) {
  return run_check("guarded-by", files);
}

std::vector<Violation> run_all(const std::vector<SourceFile>& files, const Allowlist& allow) {
  RunOptions opts;
  opts.allow = &allow;
  return run(files, opts).violations;
}

std::vector<HeaderTu> generate_header_tus(const std::vector<SourceFile>& files) {
  std::vector<HeaderTu> out;
  for (const auto& file : files) {
    const std::string_view path = file.path;
    if (path.rfind("src/", 0) != 0 || path.size() < 4 ||
        path.substr(path.size() - 4) != ".hpp") {
      continue;
    }
    const std::string rel(path.substr(4));
    std::string name = "tu_" + rel.substr(0, rel.size() - 4) + ".cpp";
    std::replace(name.begin(), name.end(), '/', '_');
    HeaderTu tu;
    tu.name = std::move(name);
    tu.content = "// generated by at_lint --write-header-tus; compiling this TU proves\n"
                 "// the header is self-contained (includes what it uses).\n"
                 "#include \"" +
                 rel + "\"\n";
    out.push_back(std::move(tu));
  }
  std::sort(out.begin(), out.end(),
            [](const HeaderTu& a, const HeaderTu& b) { return a.name < b.name; });
  return out;
}

}  // namespace at::lint
