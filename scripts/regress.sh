#!/usr/bin/env bash
# Deterministic regression gate: re-run the pinned-scale regression case
# sets (core designs, one-sided GETs, replication) into a scratch directory
# and diff their figure JSON + run manifests against the committed goldens
# in results/golden/.
#
# The simulation is single-threaded virtual time with seeded RNGs, so the
# outputs are byte-identical run to run; ANY diff means the performance
# model changed and the goldens must be deliberately re-blessed:
#
#   scripts/regress.sh            # gate: fail on drift
#   scripts/regress.sh --bless    # accept current behaviour as golden
#
# The manifest's "git_describe" line is the one legitimately run-varying
# field; it renders on its own line and is excluded from the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=results/golden
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

echo "==> running regression case sets (fixed scale, seed 42) -> $OUT"
NBKV_RESULTS_DIR="$OUT" cargo run -q --release -p nbkv-bench -- regress

if [[ "${1:-}" == "--bless" ]]; then
    rm -rf "$GOLDEN"
    mkdir -p "$GOLDEN"
    cp -r "$OUT"/. "$GOLDEN"/
    echo "==> blessed: $(find "$GOLDEN" -name '*.json' | wc -l) golden files updated"
    exit 0
fi

if [[ ! -d "$GOLDEN" ]]; then
    echo "error: no goldens at $GOLDEN — run 'scripts/regress.sh --bless' once and commit" >&2
    exit 1
fi

echo "==> diffing against $GOLDEN"
if diff -ru -I '"git_describe"' "$GOLDEN" "$OUT"; then
    echo "==> OK: no drift"
else
    echo "" >&2
    echo "error: regression outputs drifted from the committed goldens." >&2
    echo "If the change is intentional, re-bless and commit:" >&2
    echo "    scripts/regress.sh --bless && git add results/golden" >&2
    exit 1
fi
