#!/usr/bin/env bash
# The mutation table: each ci/mutants/<name>.patch re-creates one defect
# the history fixed, and the detectors its header names must find it.
#
#   ci/mutants.sh [--only NAME] [--scratch DIR]
#
# A patch touches crates/*/src only. Its header, the lines before the
# first `diff --git`, says
#
#   Fix: <commit> <subject>            the commit that fixed the defect
#   Defect: <one line>
#   Must-find: yes|no
#   Detector: <name>: <cargo test arguments>      (one line per detector)
#
# The script extracts `git archive HEAD` into DIR (default: a fresh
# temporary directory; never the source tree) and builds there with its
# own target directory. For each mutant it applies the patch, and for
# each detector builds the tests the arguments select, runs them, and
# reverts the patch. A detector finds the mutant when its tests fail.
# One row per mutant: found or missed, the detectors that found it, and
# the tests that failed. Exits non-zero when a must-find row is missed,
# or when a patch no longer applies or a mutant no longer builds (re-port
# it: the patch must still re-create the defect its header names).
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
only=""
scratch=""
while [ $# -gt 0 ]; do
    case "$1" in
    --only) only="$2"; shift 2 ;;
    --scratch) scratch="$2"; shift 2 ;;
    *) echo "usage: ci/mutants.sh [--only NAME] [--scratch DIR]" >&2; exit 2 ;;
    esac
done
[ -n "$scratch" ] || scratch="$(mktemp -d "${TMPDIR:-/tmp}/slice-mutants.XXXXXX")"
mkdir -p "$scratch"
scratch="$(cd "$scratch" && pwd)"
case "$scratch/" in
"$repo"/*) echo "mutants: the scratch directory must lie outside the source tree" >&2; exit 2 ;;
esac

tree="$scratch/tree"
rm -rf "$tree"
mkdir -p "$tree"
git -C "$repo" archive HEAD | tar -x -C "$tree"
export CARGO_TARGET_DIR="$scratch/target"
# `git apply` outside a repository patches plain files; keep it from
# finding one above the copy.
export GIT_CEILING_DIRECTORIES="$scratch"

header() { sed -n "/^diff --git/q; s/^$1: //p" "$2"; }

status=0
printf '%-10s %-7s %s\n' mutant result "detectors that found it (failing tests)"
for patch in "$repo"/ci/mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    [ -z "$only" ] || [ "$only" = "$name" ] || continue
    must="$(header Must-find "$patch")"
    log="$scratch/$name.log"
    : >"$log"
    if ! (cd "$tree" && git apply "$patch") >>"$log" 2>&1; then
        printf '%-10s %-7s %s\n' "$name" broken "the patch does not apply ($log)"
        status=1
        continue
    fi
    found=""
    broken=""
    while IFS= read -r line; do
        detector="${line%%:*}"
        read -r -a args <<<"${line#*: }"
        if ! (cd "$tree" && cargo test --no-run "${args[@]}") >>"$log" 2>&1; then
            broken="$detector"
            break
        fi
        out="$scratch/$name.$detector.out"
        if ! (cd "$tree" && cargo test "${args[@]}") >"$out" 2>&1; then
            failed="$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$out" | paste -sd ' ' -)"
            found="$found${found:+; }$detector (${failed:-no test named})"
        fi
    done < <(header Detector "$patch")
    (cd "$tree" && git apply -R "$patch") >>"$log" 2>&1
    if [ -n "$broken" ]; then
        printf '%-10s %-7s %s\n' "$name" broken "does not build for $broken ($log)"
        status=1
    elif [ -n "$found" ]; then
        printf '%-10s %-7s %s\n' "$name" found "$found"
    else
        printf '%-10s %-7s %s\n' "$name" missed "must-find: $must"
        [ "$must" != yes ] || status=1
    fi
done
exit "$status"
