#!/usr/bin/env bash
# Host-time profile of one benchmark workload.
#
#   ci/profile.sh <workload> [--callsites] [--seed N] [--seconds S] [--top N]
#
# Default (flat): builds the benchmark package statically with gprof
# instrumentation (static, so libc's memcpy/memset/malloc show up as
# symbols instead of vanishing into a shared object), runs `--workload
# <workload> --trace 0` and prints `gprof -b -p`'s top rows. gprof samples
# at 100 Hz and the instrumented build runs about as fast as the plain
# one, so a 15 s run gives ~2,000 samples: read shares to the nearest
# percent, not closer. gprof charges a sample to the nearest visible
# symbol, so the time of an inlined generic (a hash map's probe, an LRU's
# relink) lands on whichever non-inlined function holds it.
#
# --callsites: builds the benchmark with frame pointers and line tables
# (`-C force-frame-pointers=yes -C debuginfo=line-tables-only`), runs it
# under ci/sampler.c (an LD_PRELOAD SIGPROF sampler, built with the
# system cc) and resolves every sampled address with `addr2line -i`
# (ci/callsites.py): self and inclusive shares per *inlined* function, and
# the executable function that called each libc sample. The kernel's tick
# sets the rate (CONFIG_HZ, often 250 Hz), so read shares to the nearest
# percent.
#
# Run it from the repository root. Build output, samples and gmon.out go
# under $PROFILE_DIR (default target/profile), never into the source tree.
set -euo pipefail

usage="usage: ci/profile.sh <workload> [--callsites] [--seed N] [--seconds S] [--top N]"
workload="${1:?$usage}"
shift
top=25
callsites=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --top)
        top="$2"
        shift 2
        ;;
    --callsites)
        callsites=1
        shift
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

if [ "$callsites" = 1 ]; then
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
    exit 0
fi

target=x86_64-unknown-linux-gnu
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
