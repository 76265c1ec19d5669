#!/usr/bin/env bash
# Host time of one benchmark workload by layer: the call-site sampler's
# samples, each put in the layer of the innermost function on its stack
# that ci/callsites.py's LAYERS table names.
#
#   ci/layers.sh <workload> [--seed N] [--seconds S]
#   ci/layers.sh --samples FILE        (layers of samples already taken)
#
# Builds and samples as `ci/profile.sh <workload>` does (its output goes
# under $PROFILE_DIR, default target/profile), then prints
# one row per layer: its share of the samples, the share's binomial
# standard error, and the sample count. A libc sample (memcpy, malloc)
# goes to the layer of the function that called it; a sample with no
# named function on its stack is reported as `unattributed`. The rows sum
# to 100 %. Run it from the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: ci/layers.sh <workload> [--seed N] [--seconds S] | --samples FILE"
workload="${1:?$usage}"
shift
if [ "$workload" = --samples ]; then
    exec python3 "$root/ci/callsites.py" "${1:?$usage}" --layers
fi
"$root/ci/profile.sh" "$workload" "$@" >/dev/null
out="${PROFILE_DIR:-$root/target/profile}"
python3 "$root/ci/callsites.py" "$out/samples-$workload.txt" --layers
