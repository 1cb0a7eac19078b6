#!/usr/bin/env sh
# Run the benchmark suite and leave machine-readable BENCH_*.json files at
# the repository root, one per binary — the perf trajectory the roadmap
# tracks across PRs.
#
#   bench/run_benches.sh [build-dir]        # default build dir: ./build
#
# Configure + build first:
#   cmake -B build -S . && cmake --build build -j
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bench_dir="$build_dir/bench"

if [ ! -d "$bench_dir" ]; then
    echo "error: $bench_dir not found; build first (cmake -B build -S . && cmake --build build -j)" >&2
    exit 1
fi

# Standalone mains with their own JSON emitters, as "binary:json-stem".
# Each exits nonzero when its in-bench oracle fails: daemon (verdicts and
# BHR audit trail at 1-8 shards vs the serial pipeline), sim_engine (timing
# wheel vs seed-heap execution order), fg_inference (filter
# posteriors vs exact enumeration of the chain), bhr (trie vs naive-table verdicts).
standalone="bench_sim_engine:sim bench_fg_inference:fg bench_daemon:daemon bench_bhr:bhr"
for entry in $standalone; do
    name=${entry%%:*}
    [ -x "$bench_dir/$name" ] || continue
    echo "== $name"
    "$bench_dir/$name" --out "$repo_root/BENCH_${entry#*:}.json"
done

# Everything else is a google-benchmark binary; use its JSON reporter.
for bench in "$bench_dir"/bench_*; do
    [ -x "$bench" ] || continue
    name=$(basename "$bench")
    case " $standalone " in *" $name:"*) continue ;; esac
    out="$repo_root/BENCH_${name#bench_}.json"
    echo "== $name"
    "$bench" --benchmark_out="$out" --benchmark_out_format=json \
             --benchmark_min_time=0.2 >/dev/null
done

echo "wrote BENCH_*.json to $repo_root"
