// at_lint CLI. Scans src/ tools/ bench/ tests/ under --root (default: cwd),
// runs every rule, prints violations as `file:line[:col]: [rule] message`, and
// exits nonzero when any survive the allowlist.
//
//   --root DIR              repo root to scan (default '.')
//   --allowlist FILE        allowlist entries (rule file excerpt-substring)
//   --check-stale-allowlist fail (exit 1) when an allowlist entry matches
//                           nothing, or an inline `// at_lint: allow(...)`
//                           comment suppressed nothing this run
//   --diff REF              print (and exit nonzero on) only findings in
//                           files changed vs `git merge-base HEAD REF`
//                           (REF itself when no merge base exists); the
//                           whole-program phase still analyzes every file,
//                           so cross-TU findings in changed files stay
//                           complete
//   --sarif FILE            also write findings as SARIF 2.1.0 JSON
//                           (unfiltered — --diff narrows text output only)
//   --stats                 print per-phase + per-rule timing summary;
//                           appended as a markdown table to
//                           $GITHUB_STEP_SUMMARY when that is set
//   --write-header-tus DIR  instead emit one single-include TU per
//                           src/**.hpp (the CMake `lint` target compiles
//                           them to prove header self-containment)
//
// tests/negative/ (deliberately-broken fixtures) is always excluded.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "at_lint/lint.hpp"
#include "at_lint/sarif.hpp"

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Repo-relative path with '/' separators.
std::string rel_path(const fs::path& root, const fs::path& file) {
  return fs::relative(file, root).generic_string();
}

bool lintable(const fs::path& path) {
  const auto ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

/// A git rev spelling safe to interpolate into a shell command.
bool safe_ref(const std::string& ref) {
  if (ref.empty()) return false;
  for (const char c : ref) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '/' ||
                    c == '~' || c == '^' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Capture a command's stdout into `out`. False when the command fails.
bool run_command(const std::string& cmd, std::string& out) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  return pclose(pipe) == 0;
}

/// Repo-relative paths changed vs `ref` (committed + working tree), via
/// `git diff --name-only`. The ref resolves through `git merge-base HEAD
/// REF` first, so `--diff origin/main` on a feature branch compares
/// against the fork point instead of picking up every file main moved
/// since the branch — REF's tip is only used directly when merge-base
/// fails (detached fixtures, REF not an ancestor-bearing commit).
/// Returns false when git itself fails (bad ref, not a repo) so the
/// caller can fail loudly instead of linting nothing.
bool git_changed_files(const fs::path& root, const std::string& ref,
                       std::vector<std::string>& out) {
  const std::string git = "git -C \"" + root.string() + "\" ";
  std::string base = ref;
  std::string merge_base;
  if (run_command(git + "merge-base HEAD " + ref + " 2>/dev/null", merge_base)) {
    while (!merge_base.empty() &&
           (merge_base.back() == '\n' || merge_base.back() == '\r')) {
      merge_base.pop_back();
    }
    if (!merge_base.empty() && safe_ref(merge_base)) base = merge_base;
  }
  std::string acc;
  if (!run_command(git + "diff --name-only " + base +
                       " -- src tools bench tests 2>/dev/null",
                   acc)) {
    return false;
  }
  std::size_t start = 0;
  while (start < acc.size()) {
    std::size_t end = acc.find('\n', start);
    if (end == std::string::npos) end = acc.size();
    if (end > start) out.emplace_back(acc.substr(start, end - start));
    start = end + 1;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: at_lint [--root DIR] [--allowlist FILE] [--check-stale-allowlist]\n"
               "               [--diff REF] [--sarif FILE] [--stats]\n"
               "               [--write-header-tus DIR]\n"
               "  scans src/ tools/ bench/ tests/ below --root (default '.');\n"
               "  tests/negative/ (compile-fail fixtures) is excluded.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path allowlist_path;
  fs::path tu_dir;
  fs::path sarif_path;
  bool stats = false;
  bool check_stale = false;
  std::string diff_ref;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg == "--write-header-tus" && i + 1 < argc) {
      tu_dir = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--diff" && i + 1 < argc) {
      diff_ref = argv[++i];
      if (!safe_ref(diff_ref)) return usage();
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--check-stale-allowlist") {
      check_stale = true;
    } else {
      return usage();
    }
  }

  std::vector<at::lint::SourceFile> files;
  for (const char* dir : {"src", "tools", "bench", "tests"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      const std::string rel = rel_path(root, entry.path());
      // Deliberately broken lint fixtures are not shipped code.
      if (rel.rfind("tests/negative/", 0) == 0) continue;
      files.push_back({rel, read_file(entry.path())});
    }
  }
  // Directory iteration order is filesystem-dependent; sort so output and
  // header-TU emission are reproducible.
  std::sort(files.begin(), files.end(),
            [](const at::lint::SourceFile& a, const at::lint::SourceFile& b) {
              return a.path < b.path;
            });
  if (files.empty()) {
    std::fprintf(stderr, "at_lint: no .cpp/.hpp files under %s\n", root.string().c_str());
    return 2;
  }

  if (!tu_dir.empty()) {
    fs::create_directories(tu_dir);
    const auto tus = at::lint::generate_header_tus(files);
    for (const auto& tu : tus) {
      // Rewrite only on change so the build does not recompile every TU
      // after every lint run.
      const fs::path out_path = tu_dir / tu.name;
      if (fs::exists(out_path) && read_file(out_path) == tu.content) continue;
      std::ofstream out(out_path, std::ios::binary);
      out << tu.content;
    }
    std::printf("at_lint: wrote %zu header TUs to %s\n", tus.size(),
                tu_dir.string().c_str());
    return 0;
  }

  at::lint::Allowlist allow;
  if (!allowlist_path.empty()) {
    if (!fs::exists(allowlist_path)) {
      std::fprintf(stderr, "at_lint: allowlist not found: %s\n",
                   allowlist_path.string().c_str());
      return 2;
    }
    allow = at::lint::Allowlist::parse(read_file(allowlist_path));
  }

  at::lint::RunOptions opts;
  opts.allow = &allow;
  const at::lint::RunResult result = at::lint::run(files, opts);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
    out << at::lint::to_sarif(result.violations);
    if (!out) {
      std::fprintf(stderr, "at_lint: cannot write SARIF to %s\n",
                   sarif_path.string().c_str());
      return 2;
    }
  }

  // --diff narrows the reporting surface only: the whole-program phase
  // above already linked every file, so cross-TU findings anchored in a
  // changed file are as complete as a full run.
  bool diff_active = false;
  std::unordered_set<std::string> changed;
  if (!diff_ref.empty()) {
    std::vector<std::string> names;
    if (!git_changed_files(root, diff_ref, names)) {
      std::fprintf(stderr, "at_lint: git diff against '%s' failed\n", diff_ref.c_str());
      return 2;
    }
    diff_active = true;
    changed.insert(names.begin(), names.end());
  }
  const auto in_diff = [&](const std::string& file) {
    return !diff_active || changed.contains(file);
  };

  std::size_t shown = 0;
  for (const auto& v : result.violations) {
    if (!in_diff(v.file)) continue;
    ++shown;
    if (v.column > 0) {
      std::printf("%s:%zu:%zu: [%s] %s\n    %s\n", v.file.c_str(), v.line, v.column,
                  v.rule.c_str(), v.message.c_str(), v.excerpt.c_str());
    } else {
      std::printf("%s:%zu: [%s] %s\n    %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                  v.message.c_str(), v.excerpt.c_str());
    }
  }

  int exit_code = shown == 0 ? 0 : 1;
  if (check_stale) {
    const auto counts = allow.match_counts(result.raw);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != 0) continue;
      const auto& e = allow.entries()[i];
      std::printf("at_lint: stale allowlist entry (matches nothing): %s %s %s\n",
                  e.rule.c_str(), e.file.c_str(), e.token.c_str());
      exit_code = 1;
    }
    for (const auto& s : result.stale_suppressions) {
      std::printf("at_lint: stale inline suppression (suppressed nothing): "
                  "%s:%u allow(%s)\n",
                  s.file.c_str(), s.line, s.rule.c_str());
      exit_code = 1;
    }
  }

  if (stats) {
    const auto& s = result.stats;
    std::printf(
        "at_lint: %zu files | %zu raw, %zu allowlisted, %zu reported | "
        "lex %.1f ms, extract %.1f ms, link %.1f ms, check %.1f ms\n",
        s.files, s.raw_violations, s.allowlisted, result.violations.size(), s.lex_ms,
        s.extract_ms, s.link_ms, s.check_ms);
    for (const auto& r : s.rules) {
      std::printf("at_lint:   %-22s file %7.2f ms | project %7.2f ms | %zu raw\n",
                  r.name.c_str(), r.file_ms, r.project_ms, r.violations);
    }
    // On GitHub Actions, mirror the numbers into the job summary so the
    // run page shows per-rule cost without log digging.
    const char* summary_path = std::getenv("GITHUB_STEP_SUMMARY");
    if (summary_path != nullptr && summary_path[0] != '\0') {
      std::ofstream summary(summary_path, std::ios::app);
      if (summary) {
        summary << "### at_lint\n\n"
                << s.files << " files | " << s.raw_violations << " raw, " << s.allowlisted
                << " allowlisted, " << result.violations.size() << " reported\n\n"
                << "| rule | file (ms) | project (ms) | raw findings |\n"
                << "|---|---:|---:|---:|\n";
        char row[256];
        for (const auto& r : s.rules) {
          std::snprintf(row, sizeof(row), "| %s | %.2f | %.2f | %zu |\n",
                        r.name.c_str(), r.file_ms, r.project_ms, r.violations);
          summary << row;
        }
        summary << '\n';
      }
    }
  }
  if (exit_code == 0) {
    if (diff_active) {
      std::printf("at_lint: %zu changed file(s) clean (%zu files linked)\n",
                  changed.size(), files.size());
    } else {
      std::printf("at_lint: %zu files clean (%zu allowlist entries)\n", files.size(),
                  allow.size());
    }
  } else if (shown > 0) {
    std::printf("at_lint: %zu violation(s)\n", shown);
  }
  return exit_code;
}
