#!/usr/bin/env bash
# Deterministic regression gate: re-run the pinned case sets into a scratch
# directory and diff their figure JSON + run manifests against the
# committed goldens. Two sets, each with its own golden directory:
#
#   regress   `nbkv-bench regress` (fixed scale, seed 42)   -> results/golden/
#   figures   `all`, `scaling`, `sensitivity`, `resilience`
#             at NBKV_SCALE=0.05                            -> results/golden-figures/
#
# The simulation is single-threaded virtual time with seeded RNGs, so the
# outputs are byte-identical run to run; ANY diff means the performance
# model or a harness changed and the goldens must be deliberately
# re-blessed:
#
#   scripts/regress.sh [regress|figures]...   # gate: fail on drift
#   scripts/regress.sh --bless [set]...       # accept current outputs as golden
#   scripts/regress.sh --additions-only [set]...
#                                             # pass when the diff only adds
#                                             # lines (a new counter, a new
#                                             # section); fail when it removes
#                                             # or changes any line other than
#                                             # by a trailing comma
#
# With no set named, every set runs; `--bless` refreshes each set's own
# directory only, so neither set wipes the other. The manifest's
# "git_describe" line is the one legitimately run-varying field; it renders
# on its own line and is excluded from every diff.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=gate
sets=()
for arg in "$@"; do
    case "$arg" in
        --bless) mode=bless ;;
        --additions-only) mode=additions ;;
        regress | figures) sets+=("$arg") ;;
        *)
            echo "usage: scripts/regress.sh [--bless | --additions-only] [regress|figures]..." >&2
            exit 2
            ;;
    esac
done
[[ ${#sets[@]} -gt 0 ]] || sets=(regress figures)

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cargo build -q --release -p nbkv-bench
BENCH=target/release/nbkv-bench

golden_of() {
    case "$1" in
        regress) echo results/golden ;;
        figures) echo results/golden-figures ;;
    esac
}

run_set() {
    local out="$OUT/$1"
    case "$1" in
        regress)
            echo "==> running the regression case sets (fixed scale, seed 42) -> $out"
            NBKV_RESULTS_DIR="$out" "$BENCH" regress > /dev/null
            ;;
        figures)
            echo "==> running all, scaling, sensitivity, resilience (NBKV_SCALE=0.05) -> $out"
            for id in all scaling sensitivity resilience; do
                NBKV_SCALE=0.05 NBKV_RESULTS_DIR="$out" "$BENCH" "$id" > /dev/null
            done
            ;;
    esac
}

# Read a unified diff on stdin; print every removed line that does not come
# back, in the same file, as the same line with a trailing comma appended.
changed_lines() {
    awk '
        function flush(   i, l) {
            for (i = 1; i <= nrem; i++) {
                l = rem[i]
                if (l ~ /"git_describe"/) continue
                if (add[l ","] > 0) add[l ","]--
                else print file ": " l
            }
            nrem = 0
            split("", add)
        }
        /^diff /   { flush(); file = $NF; next }
        /^--- /    { next }
        /^\+\+\+ / { next }
        /^-/       { rem[++nrem] = substr($0, 2); next }
        /^\+/      { add[substr($0, 2)]++; next }
        END        { flush() }
    '
}

failed=0
for set in "${sets[@]}"; do
    golden=$(golden_of "$set")
    run_set "$set"
    out="$OUT/$set"
    case "$mode" in
        bless)
            rm -rf "$golden"
            mkdir -p "$golden"
            cp -r "$out"/. "$golden"/
            echo "==> blessed: $(find "$golden" -name '*.json' | wc -l) golden files in $golden"
            ;;
        gate)
            if [[ ! -d "$golden" ]]; then
                echo "error: no goldens at $golden — run 'scripts/regress.sh --bless $set' once and commit" >&2
                failed=1
                continue
            fi
            echo "==> diffing against $golden"
            if diff -ru -I '"git_describe"' "$golden" "$out"; then
                echo "==> OK: $set has no drift"
            else
                echo "error: $set outputs drifted from the committed goldens in $golden." >&2
                failed=1
            fi
            ;;
        additions)
            echo "==> checking that $set only adds lines to $golden"
            bad=$(diff -ruN -I '"git_describe"' "$golden" "$out" | changed_lines || true)
            if [[ -n "$bad" ]]; then
                echo "$bad" >&2
                echo "error: $set removes or changes golden lines (listed above)." >&2
                failed=1
            else
                echo "==> OK: $set only adds lines"
            fi
            ;;
    esac
done

if [[ $failed != 0 && $mode == gate ]]; then
    echo "" >&2
    echo "If the change is intentional, re-bless and commit:" >&2
    echo "    scripts/regress.sh --bless && git add results/golden results/golden-figures" >&2
fi
exit "$failed"
