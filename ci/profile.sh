#!/usr/bin/env bash
# Host-time profile of one benchmark workload, per inlined function.
#
#   ci/profile.sh <workload> [--seed N] [--seconds S] [--top N]
#
# Builds the benchmark with frame pointers and line tables (`-C
# force-frame-pointers=yes -C debuginfo=line-tables-only`), runs
# `--workload <workload> --trace 0` under ci/sampler.c (an LD_PRELOAD
# SIGPROF sampler, built with the system cc) and resolves every sampled
# address with `addr2line -i` (ci/callsites.py): self and inclusive
# shares per *inlined* function, and the executable function that called
# each libc sample. The kernel's tick sets the rate (CONFIG_HZ, often
# 250 Hz), so read shares to the nearest percent. ci/layers.sh groups the
# same samples by layer.
#
# Run it from the repository root. Build output and samples go under
# $PROFILE_DIR (default target/profile), never into the source tree.
set -euo pipefail

usage="usage: ci/profile.sh <workload> [--seed N] [--seconds S] [--top N]"
workload="${1:?$usage}"
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
mkdir -p "$out"

cc -O2 -shared -fPIC -o "$out/sampler.so" "$root/ci/sampler.c"
RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=line-tables-only" \
    cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" \
    --target-dir "$out/fp-build" >&2
bin="$out/fp-build/release/slice-benchmark"
samples="$out/samples-$workload.txt"
# The sampler writes sampler.out to the working directory at exit.
(cd "$out" && LD_PRELOAD="$out/sampler.so" \
    "$bin" --workload "$workload" --trace 0 "${args[@]}" >"$out/run-$workload.log")
mv "$out/sampler.out" "$samples"
python3 "$root/ci/callsites.py" "$samples" --top "$top" | tee "$out/callsites-$workload.txt"
echo "samples: $samples" >&2
