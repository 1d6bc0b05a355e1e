#!/usr/bin/env bash
# Build the benchmark and the `maestro` daemon from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p maestro-cli 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/maestro" "$@"
