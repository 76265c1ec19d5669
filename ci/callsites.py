#!/usr/bin/env python3
"""Self and inclusive host-time shares per inlined function, from the
samples ci/sampler.c writes.

    python3 ci/callsites.py SAMPLES [--top N]
    python3 ci/callsites.py SAMPLES --layers

Every address of a sample is resolved with `addr2line -i`, so a frame
expands to its chain of inlined functions. A sample's leaf function (the
innermost inlined function at its program counter) gets its *self* count;
every function anywhere in its stack gets one *inclusive* count. Samples
whose program counter lies outside the executable (libc) are listed apart,
by the nearest dynamic symbol and the executable function that called it.

--layers puts every sample in one layer instead: the layer of the
innermost function on its stack whose path LAYERS names (a libc sample
has no function of the executable at its leaf, so it goes to its
caller's). A sample with no such function is `unattributed`. The shares
sum to 100 % by construction; each is printed with its binomial standard
error.
"""

import math
import re
import subprocess
import sys
from collections import Counter

HASH = re.compile(r"::h[0-9a-f]{16}$")

# Function path -> layer, first match wins. A path is a function's module
# path, or for a method its type's (`<slice_storage::node::StorageNode>::
# read_encoded` is `slice_storage::node::StorageNode`), without generic
# arguments: `core::ptr::drop_in_place<slice_nfsproto::packet::Packet>`
# names no layer, so its sample goes to the function that dropped. The
# helpers every layer calls (hashing for maps, time arithmetic, the RNG,
# counters) name none either.
LAYERS = [
    (None, r"^slice_sim::(fxmap|time|rng|stats)"),
    ("checksum", r"^slice_hashes::checksum"),
    ("name hash + MD5", r"^slice_hashes::(md5|fnv|routing)|^slice_hashes::name_fingerprint"),
    ("XDR/NFS codec", r"^slice_(xdr|nfsproto)::"),
    ("µproxy", r"^slice_uproxy::"),
    ("DRC", r"^slice_core::actors::(ReplyCache|DrcCheck)"),
    ("event engine", r"^slice_sim::engine"),
    ("switch/NIC model", r"^slice_sim::net"),
    ("disk model", r"^slice_sim::disk"),
    ("storage node + block tables", r"^slice_storage::(node|object)|^slice_sim::(block_table|cache)"),
    ("coordinator", r"^slice_storage::(coord|wal)"),
    ("EC codec", r"^slice_ec::"),
    ("directory server", r"^slice_dirsvc::"),
    ("small-file server", r"^slice_smallfile::"),
    ("workload + client", r"^slice_workloads::|^slice_core::(client|script|history)"),
    ("other (glue, obs, harness)", r"^slice_"),
]
LAYER_RES = [(name, re.compile(rule)) for name, rule in LAYERS]


def path_of(function):
    """The module path a function is filed under (see LAYERS)."""
    if function.startswith("<"):
        depth = 0
        for i, c in enumerate(function):
            depth += c == "<"
            depth -= c == ">"
            if depth == 0:
                function = function[1:i].split(" as ")[0]
                break
    return function.split("<")[0]


def layer_of(function):
    path = path_of(function)
    return next((name for name, rule in LAYER_RES if rule.search(path)), None)


def layers(samples, chains, in_exe, lookup):
    """Samples per layer: the innermost named frame of each stack."""
    count = Counter()
    for s in samples:
        chain = (f for i, a in enumerate(s) if in_exe(a) for f in chains.get(lookup(i, a), []))
        count[next(filter(None, map(layer_of, chain)), "unattributed")] += 1
    return count


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
    by_layer = "--layers" in args
    if by_layer:
        args.remove("--layers")
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
    if by_layer:
        print(f"{n} samples of {exe} ({dropped} dropped)")
        print(f"\n{'share %':>8} {'± %':>5} {'samples':>8}  layer")
        for name, c in layers(samples, chains, in_exe, lookup).most_common():
            p = c / n
            err = 100 * math.sqrt(p * (1 - p) / n)
            print(f"{100 * p:8.1f} {err:5.1f} {c:8d}  {name}")
        return
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
