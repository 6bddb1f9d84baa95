#!/usr/bin/env bash
# CI pipeline: line counts, unreferenced public items, lint, tier-1
# verify, benchmark crate smoke, experiment smoke.
# Performance is measured by perfbench/ (`python3 perfbench/run.py`), not here.
#
# Usage: scripts/ci.sh
#   SYMBREAK_SCALE — experiment scale for the smoke run (default 0.25)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> info: non-test line counts per file and crate (no gate)"
python3 scripts/loc.py

echo "==> info: public items no other file names (no gate)"
python3 scripts/unused_pub.py

echo "==> lint: cargo fmt --check"
cargo fmt --all --check

echo "==> lint: cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> docs: cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> docs: cargo test --doc"
cargo test -q --doc --workspace

echo "==> tier-1: cargo build --release && cargo test -q (default-members: the workspace)"
cargo build --release
cargo test -q

echo "==> benchmark crate smoke: perfbench builds against the public API and passes its checks"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> runtime smoke: delta-report cluster, singleton start k = n = 4096, ~50 rounds"
SYMBREAK_SCALE=0.004096 cargo run --release -p symbreak-bench --bin exp_e20_cluster_theorem5

echo "==> consumption smoke: condensed multiset/single-peer consume vs the VectorEngine law, k = n = 4096"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e21_multiset_wire

echo "==> fault smoke: one coordinator, inert plan = F = 0; drop/crash/Byzantine injection"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e22_cluster_faults

echo "==> condensed smoke: histogram shards, Theorem-5 horizon at n = 262144, paired repr runs"
SYMBREAK_SCALE=0.00262144 cargo run --release -p symbreak-bench --bin exp_e23_condensed_shards

echo "==> transport smoke: loopback Unix-socket fleet vs channel fleet, byte-exact per seed"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e24_transport

echo "==> grouped pull smoke: forced-gear bands + paired k = n singleton rows"
SYMBREAK_SCALE=0.001 cargo run --release -p symbreak-bench --bin exp_e25_grouped_pull

echo "==> experiment smoke (SYMBREAK_SCALE=${SYMBREAK_SCALE:-0.25})"
SYMBREAK_SCALE="${SYMBREAK_SCALE:-0.25}" \
    cargo run --release -p symbreak-bench --bin run_all
