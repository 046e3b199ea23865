#!/bin/sh
# Offline build, unit and conformance tests, and a smoke run of every
# workload (untraced and traced) at 1/100 of the operation counts.
# Run from anywhere; a CI workflow calls this and nothing else.
set -eu
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
cargo run --release --offline --quiet -- run --seconds 0.2 --seed 1
