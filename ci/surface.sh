#!/usr/bin/env bash
# Public functions that no other file calls.
#
#   ci/surface.sh
#
# Prints `file: name` for every `pub fn` in crates/*/src, above its file's
# first `#[cfg(test)]`, whose name appears as a word in no other `.rs` file
# under crates/, tests/, examples/ or benchmark/src, and exits 1 if it
# prints any. A crate's own `src/tests.rs` holds that crate's unit tests,
# so it counts as no caller either. Such a function is used, if at all,
# only by its own crate: make it private, or delete it if the compiler
# then calls it unused (its tests can read what it returned through a
# `pub(crate)` field). A name is matched as a word, not as a path, so a
# function that shares its name with another file's item passes; the
# guard errs towards silence.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

sources=$(find crates tests examples benchmark/src -name '*.rs' -not -path '*/target/*' | sort)
found=0
for file in $(find crates/*/src -name '*.rs' | sort); do
    for name in $(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        match($0, /^[[:space:]]*pub (const |unsafe )*fn [A-Za-z0-9_]+/) {
            s = substr($0, RSTART, RLENGTH); sub(/.*fn /, "", s); print s
        }' "$file" | sort -u); do
        # shellcheck disable=SC2086
        if ! grep -lw -- "$name" $sources | grep -qvxF -e "$file" -e "${file%%/src/*}/src/tests.rs"; then
            echo "$file: $name"
            found=1
        fi
    done
done
exit "$found"
