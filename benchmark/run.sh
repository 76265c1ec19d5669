#!/usr/bin/env bash
# Builds the Slice benchmark and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the driver invokes it (BENCHMARK.json); the last line
#       of standard output is the result object
#   benchmark/run.sh [--seed N] [--out DIR] [--seconds S]
#       a result set: every workload, each in a process of its own, both
#       metric families, result-*.json and trace-*.json under DIR
#       (default benchmark/out)
#   benchmark/run.sh --compare DIR_A DIR_B
#       judges set B against base set A with the benchmark's bounds
#   benchmark/run.sh --spec
#       prints BENCHMARK.json as the program's tables define it
#
# Exits non-zero when the build fails or any output check fails. Run it
# from the repository root (paths are relative to the working directory,
# as the driver's CARGO_TARGET_DIR is).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/slice-benchmark"

for arg in "$@"; do
    case "$arg" in
    --workload | --compare | --spec) exec "$bin" "$@" ;;
    esac
done

status=0
for workload in untar_meta bulk_mirror sfs_mix repair_mix; do
    "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
