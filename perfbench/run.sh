#!/usr/bin/env bash
# Builds the release `vardelay` binary and the perfbench harness from
# source, then replaces this shell with the harness (one process drives
# every measurement).
#
#   bash perfbench/run.sh --workload sweep-mc --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh selfcheck --workload campaign --seed 1 --seconds 20 --runs 5
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/engine || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a vardelay checkout" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin vardelay >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
