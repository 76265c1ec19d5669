#!/usr/bin/env bash
# Code lines per Rust file and a total, so "lines deleted" is checkable.
#
#   ci/loc.sh [path…]        (default: crates)
#
# A code line is non-blank and not a `//` comment (doc comments included),
# counted up to the file's first `#[cfg(test)]`. Test-only files — anything
# under a `tests/` directory, and `tests.rs` modules — are skipped: the
# count is of the program, not of what checks it. To compare two commits,
# run it on a checkout of each:
#
#   git archive ca2a510 crates | tar -x -C /tmp/parent
#   ci/loc.sh /tmp/parent/crates | tail -1; ci/loc.sh | tail -1
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -gt 0 ] || set -- crates

find "$@" -name '*.rs' -not -path '*/tests/*' -not -name tests.rs -not -path '*/target/*' |
    sort |
    xargs awk '
        FNR == 1 { if (file != "") printf "%7d %s\n", n, file; file = FILENAME; n = 0; skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++; total++ }
        END { if (file != "") printf "%7d %s\n", n, file; printf "%7d total\n", total }
    '
