#!/usr/bin/env bash
# Compare kvbench between a base revision and this checkout, in
# alternating pairs.
#
#   scripts/kvbench_pairs.sh <rev> <workload> <n>
#
# Builds <rev> from `git archive` in a scratch directory with its own
# target dir, and this checkout (its working tree, uncommitted edits
# included) into kvbench/target, so neither build reuses the other's
# output. Then runs <n> pairs of `kvbench --workload <workload> --seed 42
# --seconds 30 --trace 0`, one run at a time; even pairs run the base
# first, odd pairs this checkout first. Each run prints one JSON line on
# stdout: kvbench's result line (its end-to-end metrics) with the pair
# number, the side ("parent" for <rev>, "change" for this checkout) and
# the workload put in front. Progress goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 3 ]]; then
    echo "usage: $0 <rev> <workload> <n>" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=$3
[[ "$pairs" =~ ^[0-9]+$ ]] || { echo "error: <n> must be a count, got '$pairs'" >&2; exit 2; }

scratch=$(mktemp -d "${TMPDIR:-/tmp}/kvbench-pairs.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

echo "==> building $rev in $scratch" >&2
git archive "$rev" | tar -x -C "$scratch"
cargo build --release --offline --quiet --manifest-path "$scratch/kvbench/Cargo.toml" \
    --target-dir "$scratch/target"
echo "==> building this checkout" >&2
cargo build --release --offline --quiet --manifest-path kvbench/Cargo.toml
# Building rewrites kvbench's stale lock file; leave the checkout as found.
git checkout --quiet -- kvbench/Cargo.lock 2>/dev/null || true

declare -A bin=(
    [parent]="$scratch/target/release/nbkv-kvbench"
    [change]="kvbench/target/release/nbkv-kvbench"
)
if cmp -s "${bin[parent]}" "${bin[change]}"; then
    echo "warning: both binaries are identical" >&2
fi

run() { # <pair> <side>
    echo "==> pair $1: $2" >&2
    local line
    line=$("${bin[$2]}" --workload "$workload" --seed 42 --seconds 30 --trace 0 | tail -n 1)
    echo "{\"pair\": $1, \"side\": \"$2\", \"workload\": \"$workload\", ${line#\{}"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run "$i" parent
        run "$i" change
    else
        run "$i" change
        run "$i" parent
    fi
done
