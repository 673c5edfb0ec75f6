#!/usr/bin/env bash
# Builds gomq-serve and the benchmark binary from this checkout (release),
# then runs the benchmark. Usage, from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p gomq-engine --bin gomq-serve
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/gomq-serve" \
    --work "$CARGO_TARGET_DIR/perfbench" "$@"
