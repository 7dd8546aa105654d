#!/usr/bin/env bash
# Run each kvbench workload pinned in scripts/kvbench_fingerprints.txt once
# (seed 42, one repetition set) and fail if any run fails or prints a
# fingerprint other than its pinned one.
#
#   scripts/kvbench_smoke.sh        # untraced
#   scripts/kvbench_smoke.sh 1      # traced (spans and per-layer metrics)
set -euo pipefail
cd "$(dirname "$0")/.."

trace="${1:-0}"
status=0
while read -r workload want; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    echo "==> $workload (trace $trace)"
    if ! out=$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 0 --trace "$trace" 2>&1); then
        echo "$out"
        echo "error: $workload failed" >&2
        status=1
        continue
    fi
    echo "$out"
    got=$(grep -o 'fingerprint=[0-9a-f]*' <<<"$out" | head -n1 | cut -d= -f2)
    if [[ "$got" != "$want" ]]; then
        echo "error: $workload fingerprint ${got:-missing}, pinned $want" >&2
        status=1
    fi
done < scripts/kvbench_fingerprints.txt
exit "$status"
