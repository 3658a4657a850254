#!/usr/bin/env bash
# Builds the programs under test (`figures`, `rfvd`) and the benchmark
# from source, then runs the benchmark. Run from anywhere:
#
#   bash rfvperf/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#   bash rfvperf/run.sh --bless
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p rfv-bench --bin figures -p rfvd --bin rfvd >&2
cargo build --release --offline --quiet --manifest-path rfvperf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rfvperf" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
