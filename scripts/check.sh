#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, tests. Run from anywhere; exits non-zero
# on the first failure.
#
# Note: plain `cargo fmt` / `cargo clippy --workspace` cover exactly the
# first-party crates — the vendored stand-ins under third_party/ are
# workspace-excluded (do NOT use `cargo fmt --all`, which follows path
# dependencies into them).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every [dependencies] / [dev-dependencies] entry of a workspace manifest
# must be named by a .rs file of its own package, as `dep::`, `dep!`,
# `use dep` or `dep as` (the root's `pub use nbkv_simrt as simrt`).
echo "==> unused dependency check"
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    if [ "$dir" = . ]; then srcs=(src tests examples); else srcs=("$dir"); fi
    deps=$(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
                on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest")
    for dep in $deps; do
        id=${dep//-/_}
        if ! grep -rqE --include='*.rs' "\b$id(::|!)|\buse $id\b|\b$id as\b" "${srcs[@]}"; then
            echo "$manifest declares $dep, but no .rs file in its package names it"
            unused=1
        fi
    done
done
[ "$unused" = 0 ]

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --doc -q"
cargo test --workspace --doc -q

# Broken or private intra-doc links fail the gate.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The vendored stand-ins are workspace-excluded, so run their own tests
# here; the shared target dir keeps build output out of third_party/.
for manifest in third_party/*/Cargo.toml; do
    echo "==> cargo test -q --manifest-path $manifest"
    cargo test -q --manifest-path "$manifest" --target-dir target
done

echo "==> OK"
