#!/usr/bin/env bash
# Flat host-time profile of one benchmark workload.
#
#   ci/profile.sh <workload> [--seed N] [--seconds S] [--top N]
#
# Builds the benchmark package statically with gprof instrumentation
# (static, so libc's memcpy/memset/malloc show up as symbols instead of
# vanishing into a shared object), runs `--workload <workload> --trace 0`
# and prints `gprof -b -p`'s top rows. gprof samples at 100 Hz and the
# instrumented build runs about as fast as the plain one, so a 15 s run
# gives ~2,000 samples: read shares to the nearest percent, not closer.
#
# Run it from the repository root. Build output and gmon.out go under
# $PROFILE_DIR (default target/profile), never into the source tree.
set -euo pipefail

workload="${1:?usage: ci/profile.sh <workload> [--seed N] [--seconds S] [--top N]}"
shift
top=25
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --top)
        top="$2"
        shift 2
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${PROFILE_DIR:-$root/target/profile}"
target=x86_64-unknown-linux-gnu
mkdir -p "$out"

RUSTFLAGS="-C target-feature=+crt-static -C link-arg=-pg" \
    cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" \
    --target "$target" --target-dir "$out/build" >&2

bin="$out/build/$target/release/slice-benchmark"
# gmon.out is written to the working directory at exit.
(cd "$out" && "$bin" --workload "$workload" --trace 0 "${args[@]}" >"$out/run-$workload.log")
gprof -b -p "$bin" "$out/gmon.out" >"$out/flat-$workload.txt"
head -n "$((top + 5))" "$out/flat-$workload.txt"
echo "full profile: $out/flat-$workload.txt" >&2
