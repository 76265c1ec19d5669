#!/usr/bin/env bash
# The committed performance trajectory: one JSON row per PR in
# ci/perf_history.jsonl (ROADMAP item 1).
#
#   ci/perf_history.sh <result-set-dir> [commit]
#       appends one row built from a `benchmark/run.sh --out <dir>` result
#       set: the commit (default: HEAD's short hash), the date, the host's
#       core count, the seed, the working tree's `ci/loc.sh` total (code
#       size rides the same trajectory as host_s), and per workload the
#       six end-to-end values plus the three counts that say the simulated
#       work did not change (sim.engine.events, sim.net.packets,
#       sim.net.bytes)
#   ci/perf_history.sh --check
#       verifies that every line of the history parses as JSON and holds
#       every required key, and that the last row's `loc` is what
#       `ci/loc.sh` measures on this tree — a row appended before the
#       last edit, or edited by hand, fails where it is committed (CI
#       runs this)
#
# Host-clock values (setup_s, host_s, host_peak_rss_mb) depend on the
# machine: compare rows only where `nproc` and the runner match, and
# treat them as a curve, not a gate. The sim_* values and the counts are
# exact for a given seed on any machine.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
history="$root/ci/perf_history.jsonl"

loc="$("$root/ci/loc.sh" | awk 'END { print $1 }')"

if [ "${1:-}" = "--check" ]; then
    exec python3 - "$history" "$loc" <<'EOF'
import json, sys

WORKLOADS = ["untar_meta", "bulk_mirror", "sfs_mix", "repair_mix"]
VALUES = ["setup_s", "host_s", "host_peak_rss_mb", "sim_ops_per_s", "sim_op_mean_ms",
          "sim_op_p99_ms", "sim.engine.events", "sim.net.packets", "sim.net.bytes"]
rows = 0
for n, line in enumerate(open(sys.argv[1]), 1):
    row = json.loads(line)
    for key in ["commit", "date", "nproc", "seed", "workloads"]:
        assert key in row, f"line {n}: no {key!r}"
    # The first four rows were appended before rows carried a line count.
    assert n <= 4 or isinstance(row.get("loc"), int), f"line {n}: no 'loc'"
    for w in WORKLOADS:
        for v in VALUES:
            assert isinstance(row["workloads"][w][v], (int, float)), f"line {n}: {w}.{v}"
    rows += 1
assert rows > 0, "empty history"
measured = int(sys.argv[2])
assert row["loc"] == measured, (
    f"last row ({row['commit']}) says loc {row['loc']}, ci/loc.sh measures {measured}: "
    "append this change's row with ci/perf_history.sh <result-set-dir>")
print(f"perf_history: {rows} rows ok, loc {measured}")
EOF
fi

set_dir="${1:?usage: ci/perf_history.sh <result-set-dir> [commit] | --check}"
commit="${2:-$(git -C "$root" rev-parse --short HEAD)}"

python3 - "$set_dir" "$commit" "$(date -u +%F)" "$loc" >>"$history" <<'EOF'
import json, sys

set_dir, commit, date, loc = sys.argv[1:5]
row = {"commit": commit, "date": date, "nproc": None, "seed": None, "loc": int(loc),
       "workloads": {}}
value = lambda m: m["value"] if isinstance(m, dict) else m
for w in ["untar_meta", "bulk_mirror", "sfs_mix", "repair_mix"]:
    r = json.load(open(f"{set_dir}/result-{w}.json"))
    row["nproc"], row["seed"] = r["nproc"], r["seed"]
    out = {k: value(v) for k, v in r["end_to_end"].items()}
    for k in ["sim.engine.events", "sim.net.packets", "sim.net.bytes"]:
        out[k] = value(r["per_layer"][k])
    row["workloads"][w] = out
print(json.dumps(row, separators=(",", ":")))
EOF
tail -n 1 "$history"
