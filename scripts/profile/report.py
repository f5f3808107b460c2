#!/usr/bin/env python3
"""Symbolizes sampler.c profiles and prints self and inclusive shares.

    python3 scripts/profile/report.py [--top N] [--share REGEX]...
        [--require REGEX] PROFILE...

Every address is mapped through the profile's copy of /proc/self/maps to
its ELF file and link-time address, and symbolized with `addr2line -f -C
-i`, so the functions inlined at an address count as frames of their own;
names drop their parameter lists.  A file without a symbol table (a
stripped libc) names only the addresses inside an exported function, and
gives the rest its file name, e.g. [libc.so.6].
A sample's self function is its innermost frame; a function's inclusive
share counts each sample whose stack holds it once.  --share prints the
inclusive share of the samples whose stack holds a function matching
REGEX.  With --require the exit code is 1 unless some frame of some
sample matches.
Several profiles (say one per process of a run) are pooled.
"""

import argparse
import bisect
import collections
import re
import struct
import subprocess
import sys


def read_profile(path):
    """Returns (maps, samples): maps as (start, end, offset, file) rows of
    executable mappings, samples as lists of addresses, leaf first."""
    maps, samples = [], []
    with open(path) as f:
        in_maps = False
        for line in f:
            if line.startswith("s "):
                samples.append([int(a, 16) for a in line.split()[1:]])
            elif line == "maps\n":
                in_maps = True
            elif line == "end\n":
                in_maps = False
            elif in_maps:
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1]:
                    start, end = (int(a, 16) for a in parts[0].split("-"))
                    maps.append((start, end, int(parts[2], 16),
                                 " ".join(parts[5:])))
    return maps, samples


_load_segments = {}


def load_segments(path):
    """PT_LOAD (file offset, vaddr, file size) rows of an ELF64 file."""
    if path not in _load_segments:
        rows = []
        try:
            with open(path, "rb") as f:
                header = f.read(64)
                if header[:4] == b"\x7fELF" and header[4] == 2:
                    phoff = struct.unpack_from("<Q", header, 32)[0]
                    phentsize, phnum = struct.unpack_from("<HH", header, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = \
                            struct.unpack_from("<IIQQQQ", table,
                                               i * phentsize)
                        if p_type == 1:
                            rows.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        _load_segments[path] = rows
    return _load_segments[path]


def locate(maps, address):
    """(file, link-time address) of a runtime address, or None."""
    for start, end, offset, path in maps:
        if start <= address < end:
            file_offset = address - start + offset
            for p_offset, p_vaddr, p_filesz in load_segments(path):
                if p_offset <= file_offset < p_offset + p_filesz:
                    return path, file_offset - p_offset + p_vaddr
            return path, file_offset
    return None


def has_symtab(path):
    """Whether an ELF64 file keeps its full symbol table (SHT_SYMTAB)."""
    try:
        with open(path, "rb") as f:
            header = f.read(64)
            if header[:4] != b"\x7fELF" or header[4] != 2:
                return False
            shoff = struct.unpack_from("<Q", header, 40)[0]
            shentsize, shnum = struct.unpack_from("<HH", header, 58)
            f.seek(shoff)
            table = f.read(shentsize * shnum)
    except OSError:
        return False
    return any(struct.unpack_from("<I", table, i * shentsize + 4)[0] == 2
               for i in range(shnum))


def dynamic_symbols(path):
    """(start, end, name) of a stripped file's exported functions, sorted.
    addr2line would name any address after the nearest exported symbol,
    so an address outside every symbol's extent keeps its file's name."""
    try:
        out = subprocess.run(["nm", "-D", "-S", "-C", "--defined-only", path],
                             capture_output=True, text=True,
                             check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    rows = []
    for line in out.splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "TtWwIi":
            start, size = int(parts[0], 16), int(parts[1], 16)
            rows.append((start, start + size, parts[3].split("@")[0]))
    rows.sort()
    return rows


def strip_parameters(name):
    """`ns::f<T>(int) const` -> `ns::f<T>`: matching and printing by the
    function alone, not by the types its parameters mention."""
    end = len(name)
    if name.endswith(" const"):
        end -= len(" const")
    if end == 0 or name[end - 1] != ")":
        return name
    depth = 0
    for i in range(end - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                if name[:i].endswith("operator"):  # `operator()` itself
                    return name[:i + 2]
                return name[:i] if i > 0 else name
    return name


def symbolize(requests):
    """{(file, address): [function, ...] innermost first} for the keys of
    `requests` (a dict of file -> set of link-time addresses)."""
    names = {}
    for path, addresses in requests.items():
        base = "[%s]" % path.rsplit("/", 1)[-1]
        ordered = sorted(addresses)
        if not has_symtab(path):
            symbols = dynamic_symbols(path)
            starts = [row[0] for row in symbols]
            for a in ordered:
                i = bisect.bisect_right(starts, a) - 1
                inside = i >= 0 and a < symbols[i][1]
                names[(path, a)] = [symbols[i][2] if inside else base]
            continue
        for chunk in range(0, len(ordered), 4096):
            batch = ordered[chunk:chunk + 4096]
            try:
                out = subprocess.run(
                    ["addr2line", "-f", "-C", "-i", "-a", "-e", path] +
                    ["%x" % a for a in batch],
                    capture_output=True, text=True, check=True).stdout
            except (OSError, subprocess.CalledProcessError):
                out = ""
            frames, current = {}, None
            lines = out.splitlines()
            i = 0
            while i < len(lines):
                if lines[i].startswith("0x"):
                    current = int(lines[i], 16)
                    frames[current] = []
                    i += 1
                elif current is not None:
                    frames[current].append(strip_parameters(lines[i]))
                    i += 2  # a function line, then its file:line
                else:
                    i += 1
            for a in batch:
                found = [f for f in frames.get(a, []) if f != "??"]
                names[(path, a)] = found or [base]
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--share", action="append", default=[])
    parser.add_argument("--require")
    args = parser.parse_args()

    # Each sample's frames as (file, link-time address); a caller's return
    # address minus one lies in its call instruction, so inlining resolves
    # at the call site.
    located, requests = [], collections.defaultdict(set)
    for profile in args.profiles:
        maps, samples = read_profile(profile)
        for sample in samples:
            frames = []
            for depth, address in enumerate(sample):
                where = locate(maps, address if depth == 0 else address - 1)
                if where is None:
                    frames.append(None)
                else:
                    frames.append(where)
                    requests[where[0]].add(where[1])
            located.append(frames)
    names = symbolize(requests)

    stacks = []
    for frames in located:
        stack = []
        for where in frames:
            stack.extend(names[where] if where is not None else ["[unknown]"])
        stacks.append(stack)

    total = len(stacks)
    print("samples: %d from %d profile(s)" % (total, len(args.profiles)))
    if total == 0:
        return 1 if args.require else 0

    self_counts = collections.Counter(s[0] for s in stacks if s)
    inclusive = collections.Counter()
    for stack in stacks:
        inclusive.update(set(stack))

    def table(title, counts):
        print("\n%s" % title)
        for name, count in counts.most_common(args.top):
            print("%6.1f%%  %s" % (100.0 * count / total, name[:160]))

    table("self (innermost frame)", self_counts)
    table("inclusive (anywhere on the stack)", inclusive)

    if args.share:
        print("\nshares")
    for pattern in args.share:
        regex = re.compile(pattern)
        hits = sum(1 for s in stacks if any(regex.search(f) for f in s))
        print("%6.1f%%  inclusive %s" % (100.0 * hits / total, pattern))

    if args.require:
        regex = re.compile(args.require)
        if not any(regex.search(f) for s in stacks for f in s):
            print("no frame matches %s" % args.require, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
