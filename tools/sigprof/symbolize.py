#!/usr/bin/env python3
"""Turn samp.so's output into a table of inclusive and self shares.

    symbolize.py [--top N] [--self] [--match SUBSTR] run1.samp [run2.samp ...]

Every distinct address is resolved once with `addr2line -f -i -C` against
the object it was mapped from (address minus the object's load base; return
addresses minus one so they land inside the call). The release profile keeps
debug info, so an address expands to its chain of *inlined* frames:

* a function's **inclusive** share is the fraction of samples with it
  anywhere in the stack, inlined or not, counted once per sample;
* its **self** share is the fraction of samples whose innermost frame —
  innermost inlined function of the interrupted instruction — it is.

Several files are summed (addresses are made load-base relative first, so
runs need not share a layout; `setarch -R` makes them share one anyway).
--self sorts by self share instead of inclusive. --match keeps only samples that have SUBSTR in some frame, and reports
shares of those: "where does the time under X go".
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")


def read(path):
    """-> (maps, stacks): [(start, end, base, object)], [[addr, ...]]."""
    maps, stacks, lowest = [], [], {}
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            if line.startswith("--- stacks"):
                break
            parts = line.split()
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            obj = parts[5]
            # The object's load base: where its offset-0 mapping starts.
            if int(parts[2], 16) == 0:
                lowest.setdefault(obj, start)
            if "x" in parts[1]:
                maps.append((start, end, obj))
        for line in lines:
            stacks.append([int(a, 16) for a in line.split()])
    maps = sorted((s, e, lowest.get(o, s), o) for s, e, o in maps)
    return maps, stacks


def locate(maps, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and addr < maps[i][1]:
        return maps[i][3], addr - maps[i][2]
    return None, addr


def symbolize(by_object):
    """{object: {vaddr}} -> {(object, vaddr): [innermost .. outermost names]}."""
    names = {}
    for obj, vaddrs in by_object.items():
        if obj is None:
            for v in vaddrs:
                names[(obj, v)] = ["[unmapped]"]
            continue
        vaddrs = sorted(vaddrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", obj] + [hex(v) for v in vaddrs],
            capture_output=True, text=True, check=False,
        ).stdout.splitlines()
        current = None
        # -a prints each address on its own line, then (function, file:line)
        # pairs: one per inlined frame, innermost first.
        i = 0
        while i < len(out):
            line = out[i]
            if line.startswith("0x"):
                current = (obj, int(line, 16))
                names[current] = []
                i += 1
            else:
                fn = HASH.sub("", line.strip())
                if fn == "??":
                    fn = "[%s]" % obj.rsplit("/", 1)[-1]
                names[current].append(fn)
                i += 2
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--self", dest="by_self", action="store_true")
    ap.add_argument("--match", default=None)
    args = ap.parse_args()

    samples = []  # each: [(object, vaddr), ...] innermost first
    by_object = collections.defaultdict(set)
    for path in args.files:
        maps, stacks = read(path)
        starts = [m[0] for m in maps]
        for stack in stacks:
            frames = []
            for depth, addr in enumerate(stack):
                # Frame 0 is the interrupted instruction; the rest are
                # return addresses, one past the call.
                obj, vaddr = locate(maps, starts, addr - (1 if depth else 0))
                frames.append((obj, vaddr))
                by_object[obj].add(vaddr)
            if frames:
                samples.append(frames)
    names = symbolize(by_object)

    inclusive, self_ = collections.Counter(), collections.Counter()
    kept = 0
    for frames in samples:
        chain = [fn for frame in frames for fn in names.get(frame, ["??"])]
        if args.match and not any(args.match in fn for fn in chain):
            continue
        kept += 1
        self_[chain[0]] += 1
        for fn in set(chain):
            inclusive[fn] += 1
    if not kept:
        sys.exit("no samples")
    what = " with %r in the stack" % args.match if args.match else ""
    print("%d samples%s from %d file(s)" % (kept, what, len(args.files)))
    print("%7s %7s  %s" % ("incl %", "self %", "function"))
    for fn, _ in (self_ if args.by_self else inclusive).most_common(args.top):
        print("%7.1f %7.1f  %s" % (100.0 * inclusive[fn] / kept, 100.0 * self_[fn] / kept, fn))


if __name__ == "__main__":
    main()
