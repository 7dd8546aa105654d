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

# The vendored stand-ins are workspace-excluded, so run their own tests
# here; the shared target dir keeps build output out of third_party/.
for manifest in third_party/*/Cargo.toml; do
    echo "==> cargo test -q --manifest-path $manifest"
    cargo test -q --manifest-path "$manifest" --target-dir target
done

echo "==> OK"
