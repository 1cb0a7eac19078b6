#!/usr/bin/env bash
# Pre-PR gate: run this from the repo root before opening a PR. It fails on
# ANY compiler warning (AT_WERROR plus a belt-and-braces log scan), any
# at_lint violation (including the header self-containment TUs), any ctest
# failure, and — in the sanitizer stage — any ASan/UBSan report from the
# parser-facing unit tests (the zeeklog + factor-graph suites, the code
# most exposed to hostile input).
#
# Usage: tools/ci_check.sh [--skip-sanitizers]
#
# Stages:
#   1. configure + build   build-ci/        -Wall -Wextra -Werror (AT_WERROR=ON)
#   2. lint                cmake --target lint (header TUs + at_lint sweep),
#                          stale-suppression gate on one cold 3s-budget run
#   3. dataflow fixtures   the v4 rule suites (taint / dangling-view /
#                          growth / stale suppressions) as a focused gtest
#                          pass
#   4. ctest               full suite, parallel
#   5. sanitizers          build-asan/      AT_SANITIZE=address,undefined,
#                          then the zeeklog/fg gtest suites under ASan+UBSan;
#                          build-tsan/      AT_SANITIZE=thread, then the
#                          epoch-reclamation, concurrent-BHR and daemon
#                          suites

set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_SANITIZERS=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    *) echo "usage: tools/ci_check.sh [--skip-sanitizers]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"
fail() { echo "ci_check: FAIL: $*" >&2; exit 1; }

echo "=== [1/5] configure + build (warnings are errors) ==="
cmake -B build-ci -S . -DAT_WERROR=ON > /dev/null
BUILD_LOG="$(mktemp)"
trap 'rm -f "$BUILD_LOG"' EXIT
if ! cmake --build build-ci -j "$JOBS" 2>&1 | tee "$BUILD_LOG"; then
  fail "build failed"
fi
# -Werror already promotes warnings, but scan the log too so nothing that
# slips past (e.g. linker or CMake warnings) rides through silently.
if grep -iE "warning[ :]" "$BUILD_LOG" > /dev/null; then
  grep -inE "warning[ :]" "$BUILD_LOG" >&2
  fail "build log contains warnings"
fi

echo "=== [2/5] lint (header TUs + at_lint sweep + stale-suppression gate) ==="
cmake --build build-ci --target lint -j "$JOBS" || fail "lint"
# The lint target already passes --check-stale-allowlist, but run the gate
# explicitly too so a CMake edit can't silently drop it: an allowlist entry
# or inline allow() suppression that no longer matches any finding must be
# deleted, not accumulated. The same cold whole-program run must finish
# under 3 seconds, the budget CI enforces.
LINT_START=$(date +%s%N)
LINT_OUT=$(./build-ci/tools/at_lint --root . --allowlist tools/at_lint/allowlist.txt \
  --check-stale-allowlist --stats) \
  || { echo "$LINT_OUT"; fail "lint findings or stale suppressions"; }
LINT_MS=$(( ($(date +%s%N) - LINT_START) / 1000000 ))
echo "$LINT_OUT"
echo "cold lint wall time: ${LINT_MS} ms"
[ "$LINT_MS" -lt 3000 ] || fail "cold lint exceeded 3s budget (${LINT_MS} ms)"

echo "=== [3/5] dataflow fixture suite (taint / dangling-view / growth) ==="
# The v4 rules' positive+negative fixtures in one fast pass: a rule whose
# detector regressed to silence (or to noise) fails here even if the
# repo-wide sweep above happens to stay clean.
# The suite list (one gtest pattern a line) is shared with
# .github/workflows/ci.yml.
./build-ci/tests/at_tests \
  --gtest_filter="$(paste -sd: tools/lint_fixtures.filter)" \
  || fail "dataflow fixture suite"

echo "=== [4/5] ctest ==="
ctest --test-dir build-ci --output-on-failure -j "$JOBS" || fail "ctest"

if [[ "$SKIP_SANITIZERS" == "1" ]]; then
  echo "=== [5/5] sanitizers: SKIPPED (--skip-sanitizers) ==="
else
  echo "=== [5/5] ASan+UBSan: zeeklog, traffic-plane tables, factor-graph + rule-matcher unit tests, entity core + daemon faults, BHR metadata tier ==="
  cmake -B build-asan -S . -DAT_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-asan -j "$JOBS" --target at_tests > /dev/null \
    || fail "sanitizer build"
  # halt_on_error makes any UBSan diagnostic fatal so it fails the gate
  # instead of scrolling past; detect_leaks exercises the arena/string_view
  # ownership story in AlertBatch. The suite lists (one gtest pattern a
  # line) are shared with .github/workflows/ci.yml.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tests/at_tests \
      --gtest_filter="$(paste -sd: tools/sanitize_asan_ubsan.filter)" \
    || fail "sanitized tests"

  echo "=== [5/5] TSan: epoch reclamation + concurrent BHR readers + daemon + entity core ==="
  # The lock-free paths' race coverage: a missing acquire/release edge in
  # the trie's COW publishes, the epoch pin protocol, the daemon's rings and
  # frontier, or its worker park/wake protocol shows up here.
  cmake -B build-tsan -S . -DAT_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-tsan -j "$JOBS" --target at_tests > /dev/null \
    || fail "tsan build"
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/tests/at_tests \
      --gtest_filter="$(paste -sd: tools/sanitize_tsan.filter)" \
    || fail "tsan tests"
fi

echo "ci_check: OK"
