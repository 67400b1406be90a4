"""Rebuild the benchmark's reference data from scratch:

    python3 perfbench/record.py

- catalog.json: pretty primes in RANK_FINITE_BAND with rank at most
  RANK_FINITE_ORD_MAX, for each default polynomial.  Found by a numpy orbit
  walk written here and confirmed one by one by workloads.orbit_rank, so no
  code of the program under test is involved.
- digests.json: sha256 of the stdout of every catalog command, run through
  the same launcher as the benchmark.  These pin the answers of the commit
  they were recorded at; re-record only when an answer is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys

import numpy as np

import run
import workloads as wl


def finite_rank_primes(coeffs: tuple[int, ...]) -> list[list[int]]:
    lo, hi = wl.RANK_FINITE_BAND
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    mods = np.nonzero(sieve)[0].astype(np.int64)
    mods = mods[mods >= lo]
    v = np.zeros_like(mods)
    first = np.zeros_like(mods)
    for r in range(1, wl.RANK_FINITE_ORD_MAX + 1):
        acc = np.full_like(v, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = (acc * v + c) % mods
        v = acc
        first[(v == 0) & (first == 0)] = r
    out = []
    for p, r in zip(mods.tolist(), first.tolist()):
        if r:
            if wl.orbit_rank(coeffs, p) != r:
                raise SystemExit(f"reference disagrees at p={p}")
            out.append([p, r])
    return out


def main() -> int:
    catalog = {"finite_rank_primes": {p: finite_rank_primes(wl.COEFFS[p]) for p in wl.POLYS}}
    with open(wl.HERE / "catalog.json", "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for p, rows in catalog["finite_rank_primes"].items():
        print(f"{p}: {len(rows)} finite-rank primes", file=sys.stderr)

    tmp = run.scratch_dir()
    digests = {}
    try:
        for cmd in wl.catalog():
            res = run.launch(cmd.argv, run.child_env(tmp), tmp)
            if res.rc != 0:
                raise SystemExit(f"exit {res.rc}: {cmd.key}\n{res.stderr}")
            digests[cmd.key] = hashlib.sha256(res.stdout.encode()).hexdigest()
            print(f"{res.wall:6.2f}s {cmd.key}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(wl.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
