#!/usr/bin/env sh
# attacktagger end to end: train a model (factor-graph parameters and
# rule-based signatures, attacktagger-model v3), write a small corpus, then
# replay its notice log through `detect` at 1 and at 3 shards. Passes when
# every run exits 0, verdict lines are printed, at least one of them from
# the rule-based detector, and the verdict lines are identical across the
# two shard counts; and when `detect` refuses a v2 model file with exit 1
# and a message naming the version.
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
if ! grep -q ' detector=rule-based ' "$dir/verdicts-1.txt"; then
    echo "cli_detect: no rule-based verdict line" >&2
    exit 1
fi
if ! cmp -s "$dir/verdicts-1.txt" "$dir/verdicts-3.txt"; then
    echo "cli_detect: verdict lines differ between 1 and 3 shards" >&2
    diff "$dir/verdicts-1.txt" "$dir/verdicts-3.txt" >&2 || true
    exit 1
fi
sed '1s/^attacktagger-model v3$/attacktagger-model v2/' "$dir/model.at" > "$dir/model-v2.at"
status=0
"$bin" detect --model "$dir/model-v2.at" --log "$dir/corpus/notices.log" \
    > /dev/null 2> "$dir/detect-v2.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q 'attacktagger-model v2.*attacktagger train' "$dir/detect-v2.err"; then
    echo "cli_detect: a v2 model file gave exit $status:" >&2
    cat "$dir/detect-v2.err" >&2
    exit 1
fi
echo "cli_detect: $verdicts verdict lines, identical at 1 and 3 shards; v2 model refused"
