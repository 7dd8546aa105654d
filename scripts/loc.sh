#!/usr/bin/env bash
# Line counts of the first-party Rust code: every .rs file under crates/,
# src/, tests/ and examples/, then each package's non-test lines (its src/
# files, each counted up to its first column-0 `#[cfg(test)]`, where every
# test module starts; an indented one marks a test-only helper and is
# counted). Files named as arguments get their own non-test count, and
# their sum, as well. A report, not a gate.
#
#   scripts/loc.sh
#   scripts/loc.sh crates/core/src/server/store.rs
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the given files before each one's first column-0 `#[cfg(test)]`,
# summed.
nontest() {
    awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' "$@"
}

echo "first-party Rust lines: $(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "non-test lines per package (src/ up to each file's first column-0 #[cfg(test)]):"
for dir in crates/*/ .; do
    mapfile -d '' files < <(find "$dir/src" -name '*.rs' -print0)
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n1)
    printf '  %-15s %6d\n' "$name" "$(nontest "${files[@]}")"
done
for f in "$@"; do
    printf '  %s: %d\n' "$f" "$(nontest "$f")"
done
if (($#)); then
    printf '  total of the %d named files: %d\n' "$#" "$(nontest "$@")"
fi
