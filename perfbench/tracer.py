"""Spans and work counters around calls into dyngcd's modules, recorded from
outside the package inside one command's process.

`run_traced` wraps the functions listed in SPANS in every dyngcd module that
binds them, runs the command through dyngcd.cli.main under a root span
'cli.<command>', and writes the spans and counters as JSON when it ends.

Counters come only from call arguments and results, never from inside the
functions, so a rewrite of a kernel keeps them comparable:

- scalar steps: r for a finite result of ord_direct_capped, the cap otherwise;
- lockstep steps: per lane, `found` where nonzero, `caps` otherwise; rounds
  are the largest lane's steps;
- oracle lane steps: x(x+1)/2 per _gcd_vector pass;
- rank-cache hits: `n in cache.ranks` just before OrdCache.rank_of;
- lcm overflows: lcm_checked calls that return None.

Memoized (lru_cache) functions are wrapped from the outside; a call that
cache_info() reports as a hit counts under '.memo_hits' and records no span.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array
from collections import defaultdict


def scalar_steps(result, cap: int) -> int:
    return int(result) if result is not None and result != math.inf else int(cap)


def lockstep_steps(found, caps):
    import numpy as np  # loaded by dyngcd already; run.py itself stays without numpy

    found = np.asarray(found, dtype=np.int64)
    return np.where(found > 0, found, np.asarray(caps, dtype=np.int64))


def oracle_lane_steps(x: int) -> int:
    return x * (x + 1) // 2


def _count_scalar(c, result, F, n, cap):
    steps = scalar_steps(result, cap)
    c["orbit_engine.scalar_steps"] += steps
    if result is None or result == math.inf:
        c["orbit_engine.no_zero_steps"] += steps


def _count_lockstep(c, result, F, mods, caps):
    steps = lockstep_steps(result, caps)
    c["orbit_engine.first_zero_scan.lanes"] += int(steps.size)
    c["orbit_engine.first_zero_scan.steps"] += int(steps.sum())
    c["orbit_engine.first_zero_scan.rounds"] += int(steps.max()) if steps.size else 0
    c["orbit_engine.no_zero_steps"] += int(steps[result == 0].sum())


def _count_oracle(c, result, F, x, linear):
    c["density_lab.oracle.lane_steps"] += oracle_lane_steps(x)


def _count_scan(c, result, *args, **kwargs):
    c["prime_lab.scan_primes.primes"] += len(result)


# (module, attribute, span name, counter hook)
SPANS = [
    ("arith_core", "factorize", "arith_core.factorize", None),
    ("arith_core", "sieve_primes", "arith_core.sieve_primes", None),
    ("orbit_engine", "ord_direct_capped", "orbit_engine.ord_direct_capped", _count_scalar),
    ("orbit_engine", "first_zero_scan", "orbit_engine.first_zero_scan", _count_lockstep),
    ("orbit_engine", "ord_table", "orbit_engine.ord_table", None),
    ("orbit_engine", "ord_crt", "orbit_engine.ord_crt", None),
    ("prime_lab", "scan_primes", "prime_lab.scan_primes", _count_scan),
    ("prime_lab", "is_injective_mod_p", "prime_lab.is_injective_mod_p", None),
    ("prime_lab", "scan_csv", "prime_lab.scan_csv", None),
    ("density_lab", "_gcd_vector", "density_lab.oracle", _count_oracle),
    ("density_lab", "count_sieve", "density_lab.count_sieve", None),
    ("density_lab", "floor_identity_B", "density_lab.floor_identity_B", None),
    ("density_lab", "series_density_A", "density_lab.series_density_A", None),
    ("density_lab", "series_density_B", "density_lab.series_density_B", None),
    ("density_lab", "linear_coprime_report", "density_lab.linear_coprime_report", None),
    ("density_lab", "a_nonempty", "density_lab.nonempty", None),
    ("density_lab", "b_nonempty", "density_lab.nonempty", None),
    ("density_lab", "build_density_report", "density_lab.build_density_report", None),
    ("verify", "run_suites", "verify.run_suites", None),
]


class Recorder:
    """Spans in memory as columns (name, start and end in ns, parent index),
    so that recording allocates no object per span; plus named counters."""

    def __init__(self, cmd: int):
        self.cmd = cmd
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> None:
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(len(self.names))
        self.names.append(name)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())

    def close(self, keep: bool = True) -> None:
        t = time.perf_counter_ns()
        idx = self.stack.pop()
        if keep:
            self.end[idx] = t
        else:  # only a leaf is dropped, and a leaf is the last span
            for col in (self.names, self.start, self.end, self.parent):
                col.pop()

    def wrap(self, name: str, fn, hook=None):
        memo = hasattr(fn, "cache_info")
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits = fn.cache_info().hits if memo else 0
            self.open(name)
            hit = False
            try:
                result = fn(*args, **kwargs)
                hit = memo and fn.cache_info().hits > hits
            finally:
                self.close(keep=not hit)
            if hit:
                counts[name + ".memo_hits"] += 1
            else:
                counts[calls] += 1
                if hook is not None:
                    hook(counts, result, *args, **kwargs)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        text = json.dumps({"cmd": self.cmd, "names": self.names, "start": self.start.tolist(),
                           "end": self.end.tolist(), "parent": self.parent.tolist(),
                           "counts": self.counts})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @staticmethod
    def load(path) -> tuple[list[tuple], dict[str, int]]:
        """Spans and counts of a dump, in the form spans.py works on."""
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        return [(n, s / 1e9, e / 1e9, p, d["cmd"])
                for n, s, e, p in zip(d["names"], d["start"], d["end"], d["parent"])], d["counts"]


def _rebind(old, new) -> None:
    """Point every dyngcd module that binds `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "dyngcd" or modname.startswith("dyngcd."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    from dyngcd import arith_core, cli, orbit_engine, verify  # noqa: F401  (cli binds names too)

    mods = sys.modules
    for modname, attr, name, hook in SPANS:
        fn = getattr(mods[f"dyngcd.{modname}"], attr)
        _rebind(fn, rec.wrap(name, fn, hook))

    verify._SUITES[:] = [
        (suite, rec.wrap(f"verify.suite.{suite}", fn)) for suite, fn in verify._SUITES
    ]

    counts = rec.counts
    lcm_checked = arith_core.lcm_checked

    def counted_lcm(a, b):
        v = lcm_checked(a, b)
        if v is None:
            counts["arith_core.lcm_checked.overflows"] += 1
        return v

    _rebind(lcm_checked, counted_lcm)

    cls = orbit_engine.OrdCache
    rank_of = cls.rank_of

    def counted_rank_of(self, F, n):
        counts["orbit_engine.OrdCache.rank_of.hits" if n in self.ranks
               else "orbit_engine.OrdCache.rank_of.misses"] += 1
        return rank_of(self, F, n)

    cls.rank_of = counted_rank_of

    def count_saved(c, result, cache, path):
        c["orbit_engine.OrdCache.save.entries"] += len(cache.ranks)

    def count_loaded(c, result, klass, path, expect=None):
        c["orbit_engine.OrdCache.load.entries"] += len(result.ranks)

    cls.save = rec.wrap("orbit_engine.OrdCache.save", cls.save, count_saved)
    load = cls.__dict__["load"].__func__
    cls.load = classmethod(rec.wrap("orbit_engine.OrdCache.load", load, count_loaded))


def run_traced(argv: list[str], out_path: str, cmd: int) -> int:
    from dyngcd import cli

    rec = Recorder(cmd)
    install(rec)
    rec.open(f"cli.{argv[0]}")
    try:
        return cli.main(argv)
    finally:
        rec.close()
        rec.dump(out_path)
