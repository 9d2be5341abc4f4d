#!/usr/bin/env bash
# Build the meraligner CLI and the benchmark, then run the benchmark.
# Modes and flags: see README.md beside this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ]; then
    echo "run.sh: no workspace at $root (the benchmark builds meraligner from source)" >&2
    exit 1
fi

# With CARGO_TARGET_DIR set (relative means relative to where we were
# started) both builds and all outputs go there; otherwise the CLI builds
# where `cargo build --release` at the root puts it and the benchmark keeps
# to target/benchmark.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    mkdir -p "$CARGO_TARGET_DIR"
    out="$(cd "$CARGO_TARGET_DIR" && pwd)"
    cli_target="$out"
else
    out="$root/target/benchmark"
    cli_target="$root/target"
fi

CARGO_TARGET_DIR="$cli_target" cargo build --quiet --offline --release \
    --manifest-path "$root/Cargo.toml" -p meraligner --bin meraligner >&2
CARGO_TARGET_DIR="$out" cargo build --quiet --offline --release \
    --manifest-path "$here/Cargo.toml" >&2

exec "$out/release/merbench" --cli "$cli_target/release/meraligner" --out-dir "$out" "$@"
