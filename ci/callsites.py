#!/usr/bin/env python3
"""Self and inclusive host-time shares per inlined function, from the
samples ci/sampler.c writes.

    python3 ci/callsites.py SAMPLES [--top N]

Every address of a sample is resolved with `addr2line -i`, so a frame
expands to its chain of inlined functions. A sample's leaf function (the
innermost inlined function at its program counter) gets its *self* count;
every function anywhere in its stack gets one *inclusive* count. Samples
whose program counter lies outside the executable (libc) are listed apart,
by the nearest dynamic symbol and the executable function that called it.
"""

import re
import subprocess
import sys
from collections import Counter

HASH = re.compile(r"::h[0-9a-f]{16}$")


def parse(path):
    maps, syms, samples, dropped = [], {}, [], 0
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "map":
                maps.append(rest)
            elif kind == "sym":
                addr, name = rest.split(" ", 1)
                syms[int(addr, 16)] = name
            elif kind == "sample":
                samples.append([int(a, 16) for a in rest.split()])
            elif kind == "dropped":
                dropped = int(rest)
    return maps, syms, samples, dropped


def executable(maps):
    """(path, load base, code ranges) of the executable: the file whose
    mapping at offset 0 comes first, which is the program itself."""
    exe, base, code = None, None, []
    for line in maps:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        lo, hi = (int(x, 16) for x in fields[0].split("-"))
        perms, offset, path = fields[1], int(fields[2], 16), fields[5].strip()
        if exe is None and path.startswith("/") and offset == 0:
            exe, base = path, lo
        if path == exe and "x" in perms:
            code.append((lo, hi))
    return exe, base, code


def resolve(exe, base, addrs):
    """address -> [function, ...] innermost first, via addr2line -i."""
    addrs = sorted(addrs)
    query = "".join(f"{a - base:x}\n" for a in addrs)
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe],
        input=query,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    chains, current, i = {}, None, 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            current = int(line, 16) + base
            chains[current] = []
            i += 1
            continue
        chains[current].append(HASH.sub("", line))
        i += 2  # the function's file:line follows it
    return chains


def main():
    args = sys.argv[1:]
    top = 25
    if "--top" in args:
        at = args.index("--top")
        top = int(args[at + 1])
        del args[at : at + 2]
    maps, syms, samples, dropped = parse(args[0])
    exe, base, code = executable(maps)

    def in_exe(a):
        return any(lo <= a < hi for lo, hi in code)

    # A return address points after its call: look up the call itself.
    def lookup(i, a):
        return a if i == 0 else a - 1

    wanted = {lookup(i, a) for s in samples for i, a in enumerate(s) if in_exe(a)}
    chains = resolve(exe, base, wanted)
    n = len(samples)
    self_count, incl_count, libc = Counter(), Counter(), Counter()
    for s in samples:
        seen = set()
        for i, a in enumerate(s):
            if in_exe(a):
                seen.update(chains.get(lookup(i, a), ["??"]))
        for f in seen:
            incl_count[f] += 1
        if in_exe(s[0]):
            self_count[chains.get(s[0], ["??"])[0]] += 1
        else:
            name = syms.get(s[0], "?")
            caller = chains.get(s[1] - 1, ["?"])[0] if len(s) > 1 else "?"
            self_count[f"[libc] {name}"] += 1
            incl_count[f"[libc] {name}"] += 1
            libc[(name, caller)] += 1

    print(f"{n} samples of {exe} ({dropped} dropped)")
    print(f"\n{'self %':>7} {'incl %':>7}  function (by self)")
    for f, c in self_count.most_common(top):
        print(f"{100 * c / n:7.1f} {100 * incl_count.get(f, 0) / n:7.1f}  {f}")
    print(f"\n{'incl %':>7} {'self %':>7}  function (by inclusive)")
    for f, c in incl_count.most_common(top):
        print(f"{100 * c / n:7.1f} {100 * self_count.get(f, 0) / n:7.1f}  {f}")
    print(f"\n{'self %':>7}  libc symbol <- calling function (first code address on the stack)")
    for (name, caller), c in libc.most_common(top):
        print(f"{100 * c / n:7.1f}  {name} <- {caller}")


if __name__ == "__main__":
    main()
