#!/usr/bin/env bash
# Builds the release cq-serve binary and the benchmark runner, then runs
# it. Usage, from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the runner's last stdout line is the
# result object.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/engine || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a cqbounds checkout" >&2
    exit 2
fi

# Settings that change what the program computes or emits must come from
# the benchmark, not from the caller's environment.
unset CQ_TRACE CQ_HYBRID_TRACE CQ_LP_ENGINE

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin cq-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/cq-perfbench" --serve-bin "$target/release/cq-serve" "$@"
