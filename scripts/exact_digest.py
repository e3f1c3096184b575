#!/usr/bin/env python3
"""Digests of the exact layer's outputs on the benchmark's seeded specs.

    python scripts/exact_digest.py            # print one digest per seed
    python scripts/exact_digest.py --write    # write tests/exact_digest.json
    python scripts/exact_digest.py --check    # compare with that file

For each seed (1, 5, 7, 43 and 99) the digest is the sha256 of the repr of
every `exact_run` result over `perfbench/workloads.exact_cases(seed)`, in
case order: the verdicts of `classify`, both fold conics and the image
line of every edge.  The repr records types as well as values, so a
Fraction that turns into an int changes the digest.  The script reads
perfbench and writes nothing there.  Run it from anywhere; it works in
the repository root.  `--check` exits 1 and names each seed that differs.

The file lives outside tests/golden, whose *.json files are spec files
to the tests and to perfbench.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "exact_digest.json"
SEEDS = (1, 5, 7, 43, 99)


def digests() -> dict:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    out = {}
    for seed in SEEDS:
        h = hashlib.sha256()
        for case in workloads.exact_cases(seed):
            h.update(repr(workloads.exact_run(case.spec)).encode())
            h.update(b"\n")
        out[str(seed)] = h.hexdigest()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"write {DIGESTS.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {DIGESTS.name}")
    args = ap.parse_args(argv)
    got = digests()
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=2) + "\n")
    if not args.check:
        for seed, digest in got.items():
            print(seed, digest)
        return 0
    want = json.loads(DIGESTS.read_text())
    bad = [s for s in sorted(set(want) | set(got), key=int) if want.get(s) != got.get(s)]
    for s in bad:
        print(f"seed {s}: {got.get(s)} != committed {want.get(s)}")
    if not bad:
        print(f"exact outputs match {DIGESTS.relative_to(ROOT)} on seeds "
              + ", ".join(map(str, SEEDS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
