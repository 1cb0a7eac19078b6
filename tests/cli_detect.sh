#!/usr/bin/env sh
# attacktagger end to end: train a model, write a small corpus, then replay
# its notice log through `detect` at 1 and at 3 shards. Passes when every
# run exits 0, at least one verdict line is printed, and the verdict lines
# are identical across the two shard counts.
#
#   tests/cli_detect.sh <attacktagger-binary> <scratch-dir>
set -eu

bin=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

"$bin" train --out "$dir/model.at" --seed 7
"$bin" corpus --out "$dir/corpus" --seed 5 --scale 0.01
for shards in 1 3; do
    "$bin" detect --model "$dir/model.at" --log "$dir/corpus/notices.log" \
        --shards "$shards" > "$dir/detect-$shards.txt"
    grep ' verdict seq=' "$dir/detect-$shards.txt" > "$dir/verdicts-$shards.txt" || true
done

verdicts=$(wc -l < "$dir/verdicts-1.txt")
if [ "$verdicts" -eq 0 ]; then
    echo "cli_detect: detect printed no verdict lines" >&2
    exit 1
fi
if ! cmp -s "$dir/verdicts-1.txt" "$dir/verdicts-3.txt"; then
    echo "cli_detect: verdict lines differ between 1 and 3 shards" >&2
    diff "$dir/verdicts-1.txt" "$dir/verdicts-3.txt" >&2 || true
    exit 1
fi
echo "cli_detect: $verdicts verdict lines, identical at 1 and 3 shards"
