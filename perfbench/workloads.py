"""Seeded command lists for the dyngcd benchmark.

Every workload runs the three default polynomials.  The seed picks inputs
inside strata of equal cost, so two seeds measure the same amount of work on
different numbers: a run-to-run spread is then noise of the machine, not a
property of the seed.

- rank:    rounds of `ord` commands of equal cost, each on a new prime or
           prime power and composites of moduli that earlier commands left
           in the on-disk rank cache (scalar rank search, cache I/O).
- scan:    exact `scan --cache` windows, then `series` reading that cache
           (lockstep kernel at full caps, record building, CSV).
- density: `density --method both` (O(x^2) oracle), `--method sieve` at
           x = 10^6 (bounded-cap scan over 78k primes), one `coprime`.
- verify:  `verify` per polynomial; the seed only orders the commands.

Outputs of `ord` are checked against the exact lines built here from an
independent cycle-detection reference.  Every other command comes from a
finite catalog (`catalog`), and its stdout is checked against the digest
recorded for it in digests.json.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

POLYS = ("x^2+1", "x^2+x+1", "x^3+x^2+1")
COEFFS = {"x^2+1": (1, 0, 1), "x^2+x+1": (1, 1, 1), "x^3+x^2+1": (1, 0, 1, 1)}
QUADRATICS = POLYS[:2]
WORKLOADS = ("rank", "scan", "density", "verify")

# rank: Horner steps of the scalar search per `ord` command, divided by the
# polynomial's cost per step relative to the quadratics (measured on a 2-vCPU
# Xeon host), so that every command costs about the same: the median command
# then sits inside one cost class for every seed.
RANK_STEPS = 900_000
RANK_STEP_COST = {"x^2+1": 1.0, "x^2+x+1": 1.0, "x^3+x^2+1": 1.22}
RANK_ROUNDS = 3
# rank: finite-rank primes come from catalog.json (pretty primes in this band
# with small rank); keeping them in one band keeps the trial division of the
# composites built from them at the same cost for every seed.
RANK_FINITE_BAND = (100_000, 200_000)
RANK_FINITE_ORD_MAX = 3000

# scan: window tops and series depths, one stratum per polynomial.  Series
# depths are set per polynomial so that the series commands cost about the
# same as the quadratics' scans (measured on a 2-vCPU Xeon host); the cubic's
# scan costs more, mostly independent of the window width.
SCAN_TOPS = tuple(40_000 + 50 * j for j in range(-5, 6))
SCAN_WIDTH = 1500
SERIES_T = {"x^2+1": 15_500, "x^2+x+1": 15_500, "x^3+x^2+1": 10_000}
SERIES_OFFSETS = tuple(20 * j for j in range(-5, 6))

# density: fixed sizes, seeded k and linear form; b values whose union-density
# walks cost about the same.
DENSITY_BOTH_X = 8000
DENSITY_SIEVE_X = 10**6
DENSITY_K_MAX = 12
COPRIME_X = 5000
COPRIME_BS = (1, 3, 7, 13)

VERIFY_BOUND = 90


@dataclass(frozen=True)
class Command:
    """Arguments after `dyngcd`, and the exact stdout when the benchmark
    can build it itself (None: check against the recorded digest)."""

    argv: tuple[str, ...]
    expect: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# reference arithmetic, independent of the program under test
# ---------------------------------------------------------------------------


def orbit_rank(coeffs: tuple[int, ...], n: int) -> int | None:
    """Least r >= 1 with a_r = 0 mod n, or None when 0 never recurs.

    Brent's cycle detection finds the cycle length lam of v -> F(v) mod n
    from v = 0.  0 recurs exactly when the orbit is purely periodic, and then
    its first return is at lam."""
    if n == 1:
        return 1

    def step(v: int) -> int:
        acc = coeffs[-1] % n
        for c in reversed(coeffs[:-1]):
            acc = (acc * v + c) % n
        return acc

    power = lam = 1
    tortoise, hare = 0, step(0)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        lam += 1
    v = 0
    for _ in range(lam):
        v = step(v)
    return lam if v == 0 else None


def prime_power_base(n: int) -> int | None:
    """p when n = p^e for a prime p and e >= 1, else None."""
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            while n % d == 0:
                n //= d
            return d if n == 1 else None
    return n if n > 1 else None


def ord_line(n: int, rank: int | None) -> str:
    if rank is None:
        return f"n={n} ord=inf ell=inf"
    return f"n={n} ord={rank} ell={math.lcm(n, rank)}"


def pretty_ks(poly: str) -> tuple[int, ...]:
    """k <= DENSITY_K_MAX with finite rank, so the density routes do work."""
    return tuple(
        k for k in range(1, DENSITY_K_MAX + 1) if orbit_rank(COEFFS[poly], k) is not None
    )


def sieve_ks(poly: str) -> tuple[int, ...]:
    """pretty_ks without k = 1, which runs measurably faster than the others
    at x = 10^6 and so would widen the cost stratum."""
    return tuple(k for k in pretty_ks(poly) if k > 1)


def load_catalog() -> dict:
    with open(HERE / "catalog.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _infinite_near(coeffs, target: int, used: set[int]) -> int:
    """An infinite-rank prime or prime power at or next to target, not in used."""
    for off in range(0, target):
        for n in (target + off, target - off) if off else (target,):
            if n not in used and prime_power_base(n) is not None and orbit_rank(coeffs, n) is None:
                return n
    raise ValueError(f"no infinite-rank modulus near {target}")


def _rank(rng: random.Random) -> list[Command]:
    """RANK_ROUNDS rounds of one `ord` command per polynomial.  Command j
    searches one new infinite-rank modulus m_j and one new finite-rank prime
    f_j (m_j + ord(f_j) Horner steps, fixed per polynomial), then ranks
    composites through the cache: f_{j-1} * f_j and m_{j-1} * f_j with
    f_{j-1}, m_{j-1} read from disk, or m_0 * f_0 from memory when j = 0."""
    finite = load_catalog()["finite_rank_primes"]
    rounds: list[list[Command]] = [[] for _ in range(RANK_ROUNDS)]
    for i, poly in enumerate(POLYS):
        coeffs = COEFFS[poly]
        steps = round(RANK_STEPS / RANK_STEP_COST[poly])
        cache = ["--cache", f"rank{i}.csv"]
        used: set[int] = set()
        prev = None
        for j, (f, o) in enumerate(rng.sample(finite[poly], RANK_ROUNDS)):
            m = _infinite_near(coeffs, steps - o - rng.randrange(steps // 200), used)
            used.add(m)
            ranks: dict[int, int | None] = {m: None, f: o}
            if prev is None:
                ranks[m * f] = None
            else:
                pm, pf, po = prev
                # ell(pf * f) <= 4e10 * 9e6 stays below 2^64, where ell is exact.
                ranks[pf * f] = math.lcm(po, o)
                ranks[pm * f] = None
            rounds[j].append(_ord_command(poly, cache, ranks))
            prev = (m, f, o)
    for r in rounds:
        rng.shuffle(r)
    return [cmd for r in rounds for cmd in r]


def _ord_command(poly: str, cache: list[str], ranks: dict[int, int | None]) -> Command:
    argv = ["ord", "--poly", poly, *cache]
    for n in ranks:
        argv += ["--n", str(n)]
    expect = "".join(ord_line(n, r) + "\n" for n, r in ranks.items())
    return Command(tuple(argv), expect)


def _scan_cmd(poly: str, top: int) -> Command:
    i = POLYS.index(poly)
    return Command(("scan", "--poly", poly, "--cache", f"scan{i}.csv",
                    "--pmin", str(top - SCAN_WIDTH), "--pmax", str(top)))


def _series_cmd(poly: str, T: int) -> Command:
    i = POLYS.index(poly)
    return Command(("series", "--poly", poly, "--cache", f"scan{i}.csv",
                    "--k", "1", "--T", str(T)))


def _density_cmd(poly: str, k: int, x: int, method: str) -> Command:
    return Command(("density", "--poly", poly, "--k", str(k), "--x", str(x),
                    "--method", method, "--format", "json"))


def _coprime_cmd(b: int) -> Command:
    return Command(("coprime", "--poly", POLYS[0], "--a", "2", "--b", str(b),
                    "--x", str(COPRIME_X), "--format", "json"))


def _verify_cmd(poly: str) -> Command:
    return Command(("verify", "--poly", poly, "--bound", str(VERIFY_BOUND)))


def _scan(rng: random.Random) -> list[Command]:
    scans = [_scan_cmd(p, rng.choice(SCAN_TOPS)) for p in POLYS]
    series = [_series_cmd(p, SERIES_T[p] + rng.choice(SERIES_OFFSETS)) for p in POLYS]
    rng.shuffle(scans)
    rng.shuffle(series)
    return scans + series


def _density(rng: random.Random) -> list[Command]:
    cmds = [_density_cmd(p, rng.choice(pretty_ks(p)), DENSITY_BOTH_X, "both") for p in POLYS]
    cmds += [_density_cmd(p, rng.choice(sieve_ks(p)), DENSITY_SIEVE_X, "sieve") for p in QUADRATICS]
    cmds.append(_coprime_cmd(rng.choice(COPRIME_BS)))
    rng.shuffle(cmds)
    return cmds


def _verify(rng: random.Random) -> list[Command]:
    cmds = [_verify_cmd(p) for p in POLYS]
    rng.shuffle(cmds)
    return cmds


_GENERATORS = {"rank": _rank, "scan": _scan, "density": _density, "verify": _verify}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of one pass; the same (workload, seed) always gives
    the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def catalog() -> list[Command]:
    """Every command a generator can emit whose output is checked by digest."""
    cmds = [_scan_cmd(p, t) for p in POLYS for t in SCAN_TOPS]
    cmds += [_series_cmd(p, SERIES_T[p] + d) for p in POLYS for d in SERIES_OFFSETS]
    cmds += [_density_cmd(p, k, DENSITY_BOTH_X, "both") for p in POLYS for k in pretty_ks(p)]
    cmds += [_density_cmd(p, k, DENSITY_SIEVE_X, "sieve") for p in QUADRATICS for k in sieve_ks(p)]
    cmds += [_coprime_cmd(b) for b in COPRIME_BS]
    cmds += [_verify_cmd(p) for p in POLYS]
    return cmds
