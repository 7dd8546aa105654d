#!/usr/bin/env bash
# Line counts of the first-party Rust code: every .rs file under crates/,
# src/, tests/ and examples/, then each package's non-test lines (its src/
# files, each counted up to its first `#[cfg(test)]`). Files named as
# arguments get their own non-test count as well. A report, not a gate.
#
#   scripts/loc.sh
#   scripts/loc.sh crates/core/src/server/store.rs
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the given files before each one's first `#[cfg(test)]`, summed.
nontest() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' "$@"
}

echo "first-party Rust lines: $(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "non-test lines per package (src/ up to each file's first #[cfg(test)]):"
for dir in crates/*/ .; do
    mapfile -d '' files < <(find "$dir/src" -name '*.rs' -print0)
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n1)
    printf '  %-15s %6d\n' "$name" "$(nontest "${files[@]}")"
done
for f in "$@"; do
    printf '  %s: %d\n' "$f" "$(nontest "$f")"
done
