#!/usr/bin/env bash
# The one command: builds the benchmark (and the program it measures) from
# source, offline, and runs it. Arguments pass straight through:
#
#   bash bench/run.sh                                    all five workloads, untraced
#   bash bench/run.sh --trace 1                          all five, traced: per-layer metrics
#   bash bench/run.sh --workload point-reads --seed 3 --seconds 10 --trace 0
#   bash bench/run.sh --smoke                            every code path in seconds
#   bash bench/run.sh --repeat 10 --workload mixed-rw    medians, quartiles, spread
#
# See bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
LADDER_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
LADDER_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export LADDER_COMMIT LADDER_RUSTC
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
